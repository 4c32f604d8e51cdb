// Ablation: the inner checkpoint count m (DESIGN.md §4).
//
// Prints R1(m)/R2(m) across m for the paper's parameters, the optimum
// found by the Fig. 2 procedure vs the exact integer argmin the
// policies use, and a simulated
// verification of the analytic curves (engine-measured expected
// interval time at selected m).
#include <cstdint>
#include <iostream>
#include <memory>

#include "analytic/num_checkpoints.hpp"
#include "sim/monte_carlo.hpp"
#include "util/cli.hpp"
#include "util/tables.hpp"

namespace {

using namespace adacheck;

double simulate_interval(double interval, int m, double lambda,
                         const model::CheckpointCosts& costs,
                         sim::InnerKind kind, int runs) {
  sim::SimSetup setup{model::TaskSpec{interval, 1e12, 0.0, 1 << 20, "abl"},
                      costs,
                      model::DvsProcessor({model::SpeedLevel{1.0, 2.0}}),
                      model::FaultModel{lambda, false}};

  class FixedPolicy final : public sim::ICheckpointPolicy {
   public:
    explicit FixedPolicy(sim::Decision plan) : plan_(plan) {}
    std::string name() const override { return "fixed"; }
    sim::Decision initial(const sim::ExecContext&) override { return plan_; }
    sim::Decision on_fault(const sim::ExecContext&) override { return plan_; }

   private:
    sim::Decision plan_;
  };

  sim::Decision plan;
  plan.speed = setup.processor.slowest();
  plan.cscp_interval = interval;
  plan.sub_interval = interval / static_cast<double>(m);
  plan.inner = kind;

  sim::MonteCarloConfig config;
  config.runs = runs;
  config.seed = 0xAB1A;
  const auto stats = sim::run_cell(
      setup, [plan] { return std::make_unique<FixedPolicy>(plan); }, config);
  return stats.finish_time_success.mean();
}

void sweep(const char* title, bool scp, double interval, double lambda,
           int runs) {
  const auto costs = scp ? model::CheckpointCosts::paper_scp_flavor()
                         : model::CheckpointCosts::paper_ccp_flavor();
  std::cout << title << " (T=" << interval << ", lambda=" << lambda
            << ", t_s=" << costs.store << ", t_cp=" << costs.compare
            << ")\n";
  util::TextTable table({"m", "analytic E[time]", "simulated E[time]",
                         "overhead vs m=1"});
  double base = 0.0;
  for (int m : {1, 2, 3, 4, 6, 8, 12, 16, 24, 32}) {
    double analytic_value = 0.0;
    if (scp) {
      analytic::ScpRenewalParams p{interval, lambda, costs};
      analytic_value = analytic::scp_expected_time(p, m);
    } else {
      analytic::CcpRenewalParams p{interval, lambda, costs};
      analytic_value = analytic::ccp_expected_time_recursive(p, m);
    }
    if (m == 1) base = analytic_value;
    const double simulated = simulate_interval(
        interval, m, lambda, costs,
        scp ? sim::InnerKind::kScp : sim::InnerKind::kCcp, runs);
    table.add_row({std::to_string(m), util::fmt_fixed(analytic_value, 2),
                   util::fmt_fixed(simulated, 2),
                   util::fmt_fixed(100.0 * (analytic_value / base - 1.0), 2) +
                       "%"});
  }
  std::cout << table;

  if (scp) {
    analytic::ScpRenewalParams p{interval, lambda, costs};
    std::cout << "num_SCP  Fig. 2: " << analytic::num_scp_fig2(p)
              << "   exact: " << analytic::num_scp(p) << "\n\n";
  } else {
    analytic::CcpRenewalParams p{interval, lambda, costs};
    std::cout << "num_CCP  Fig. 2: " << analytic::num_ccp_fig2(p)
              << "   exact: " << analytic::num_ccp(p) << "\n\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv, {"runs", "interval", "lambda"});
  const int runs = static_cast<int>(args.get_int("runs", 20'000));
  const double interval = args.get_double("interval", 800.0);
  const double lambda = args.get_double("lambda", 4e-3);

  std::cout << "=== Ablation: inner checkpoint count m ===\n\n";
  sweep("SCP scheme R1(m)", /*scp=*/true, interval, lambda, runs);
  sweep("CCP scheme R2(m)", /*scp=*/false, interval, lambda, runs);

  std::cout << "Optimal m across fault rates (T=" << interval << "):\n";
  util::TextTable table({"lambda", "num_SCP Fig. 2", "num_SCP exact",
                         "num_CCP Fig. 2", "num_CCP exact"});
  for (double l : {1e-4, 5e-4, 1.4e-3, 4e-3, 1e-2, 3e-2}) {
    analytic::ScpRenewalParams ps{interval, l,
                                  model::CheckpointCosts::paper_scp_flavor()};
    analytic::CcpRenewalParams pc{interval, l,
                                  model::CheckpointCosts::paper_ccp_flavor()};
    table.add_row({util::fmt_sci(l, 1),
                   std::to_string(analytic::num_scp_fig2(ps)),
                   std::to_string(analytic::num_scp(ps)),
                   std::to_string(analytic::num_ccp_fig2(pc)),
                   std::to_string(analytic::num_ccp(pc))});
  }
  std::cout << table;
  return 0;
}
