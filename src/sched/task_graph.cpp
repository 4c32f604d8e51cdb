#include "sched/task_graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace adacheck::sched {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument("TaskGraph: " + message);
}

}  // namespace

std::size_t TaskGraph::add_node(GraphNode node) {
  nodes.push_back(std::move(node));
  return nodes.size() - 1;
}

void TaskGraph::add_edge(const std::string& from, const std::string& to) {
  edges.push_back({node_index(from), node_index(to)});
}

std::size_t TaskGraph::add_resource(std::string resource_name, int capacity) {
  resources.push_back({std::move(resource_name), capacity});
  return resources.size() - 1;
}

std::size_t TaskGraph::node_index(std::string_view node_name) const {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].name == node_name) return i;
  }
  fail("unknown node \"" + std::string(node_name) + "\"");
}

void TaskGraph::validate() const {
  if (nodes.empty()) fail("at least one node required");
  if (period <= 0.0) fail("period must be > 0");
  if (deadline < 0.0) fail("deadline must be >= 0 (0 = period)");

  std::unordered_set<std::string> seen;
  for (const auto& node : nodes) {
    if (node.name.empty()) fail("node names must be non-empty");
    if (!seen.insert(node.name).second) {
      fail("duplicate node name \"" + node.name + "\"");
    }
    if (node.cycles <= 0.0) {
      fail("node \"" + node.name + "\": cycles must be > 0");
    }
    if (node.fault_tolerance < 0) {
      fail("node \"" + node.name + "\": fault_tolerance must be >= 0");
    }
    if (node.period < 0.0) {
      fail("node \"" + node.name + "\": period must be >= 0 (0 = graph's)");
    }
    if (node.deadline < 0.0 || node.deadline > node.period) {
      fail("node \"" + node.name + "\": deadline must be in [0, period]");
    }
    if (node.phase < 0.0 || (node.phase > 0.0 && !node.own_period())) {
      fail("node \"" + node.name +
           "\": phase must be >= 0 and needs a node period");
    }
    std::unordered_set<std::size_t> held;
    for (const std::size_t r : node.resources) {
      if (r >= resources.size()) {
        fail("node \"" + node.name + "\": resource index out of range");
      }
      if (!held.insert(r).second) {
        fail("node \"" + node.name + "\": duplicate resource \"" +
             resources[r].name + "\"");
      }
    }
  }

  seen.clear();
  for (const auto& resource : resources) {
    if (resource.name.empty()) fail("resource names must be non-empty");
    if (!seen.insert(resource.name).second) {
      fail("duplicate resource name \"" + resource.name + "\"");
    }
    if (resource.capacity < 1) {
      fail("resource \"" + resource.name + "\": capacity must be >= 1");
    }
  }

  for (const auto& edge : edges) {
    if (edge.from >= nodes.size() || edge.to >= nodes.size()) {
      fail("edge references a node index out of range");
    }
    if (edge.from == edge.to) {
      fail("self-edge on node \"" + nodes[edge.from].name + "\"");
    }
    for (const std::size_t end : {edge.from, edge.to}) {
      if (nodes[end].own_period()) {
        fail("node \"" + nodes[end].name +
             "\" has its own period and cannot take edges");
      }
    }
  }

  // Cycle check via DFS with an explicit recursion stack; on hitting a
  // gray node the stack spells out the offending path.
  std::vector<std::vector<std::size_t>> successors(nodes.size());
  for (const auto& edge : edges) successors[edge.from].push_back(edge.to);

  enum class Mark { kWhite, kGray, kBlack };
  std::vector<Mark> mark(nodes.size(), Mark::kWhite);
  std::vector<std::size_t> path;

  struct Frame {
    std::size_t node;
    std::size_t next = 0;  ///< next successor to visit
  };
  for (std::size_t root = 0; root < nodes.size(); ++root) {
    if (mark[root] != Mark::kWhite) continue;
    std::vector<Frame> stack{{root}};
    mark[root] = Mark::kGray;
    path.push_back(root);
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.next < successors[frame.node].size()) {
        const std::size_t next = successors[frame.node][frame.next++];
        if (mark[next] == Mark::kGray) {
          std::string cycle = "cycle:";
          const auto start =
              std::find(path.begin(), path.end(), next) - path.begin();
          for (std::size_t i = static_cast<std::size_t>(start);
               i < path.size(); ++i) {
            cycle += " " + nodes[path[i]].name + " ->";
          }
          cycle += " " + nodes[next].name;
          fail(cycle);
        }
        if (mark[next] == Mark::kWhite) {
          mark[next] = Mark::kGray;
          path.push_back(next);
          stack.push_back({next});
        }
      } else {
        mark[frame.node] = Mark::kBlack;
        path.pop_back();
        stack.pop_back();
      }
    }
  }
}

std::vector<std::size_t> TaskGraph::topological_order() const {
  std::vector<int> indegree(nodes.size(), 0);
  std::vector<std::vector<std::size_t>> successors(nodes.size());
  for (const auto& edge : edges) {
    successors[edge.from].push_back(edge.to);
    ++indegree[edge.to];
  }
  // Kahn's with an ordered frontier: always take the smallest ready
  // index, so the order is a pure function of the graph.
  std::vector<std::size_t> frontier;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (indegree[i] == 0) frontier.push_back(i);
  }
  std::vector<std::size_t> order;
  order.reserve(nodes.size());
  while (!frontier.empty()) {
    const auto it = std::min_element(frontier.begin(), frontier.end());
    const std::size_t node = *it;
    frontier.erase(it);
    order.push_back(node);
    for (const std::size_t next : successors[node]) {
      if (--indegree[next] == 0) frontier.push_back(next);
    }
  }
  if (order.size() != nodes.size()) {
    fail("topological_order on a cyclic graph (validate() first)");
  }
  return order;
}

std::vector<double> TaskGraph::downstream_path_cycles() const {
  std::vector<std::vector<std::size_t>> successors(nodes.size());
  for (const auto& edge : edges) successors[edge.from].push_back(edge.to);
  const auto order = topological_order();
  std::vector<double> path(nodes.size(), 0.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t node = *it;
    double longest = 0.0;
    for (const std::size_t next : successors[node]) {
      longest = std::max(longest, path[next]);
    }
    path[node] = nodes[node].cycles + longest;
  }
  return path;
}

double TaskGraph::critical_path_cycles() const {
  const auto path = downstream_path_cycles();
  double longest = 0.0;
  for (const double p : path) longest = std::max(longest, p);
  return longest;
}

}  // namespace adacheck::sched
