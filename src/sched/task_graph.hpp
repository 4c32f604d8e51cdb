// Precedence-constrained task graphs (DAG workloads).
//
// The paper's model is one job against one deadline; a TaskGraph
// composes many such jobs into a directed acyclic graph: each node is
// a paper-model job (cycles, fault-tolerance k, checkpointing policy)
// and each edge a precedence constraint.  A whole graph instance is
// released every `period` with one end-to-end deadline.  A node with
// its own `period` is instead released on its own stream (a periodic
// task, first release at its `phase`), each release a one-node
// instance with the node's deadline; such a node takes no edges, so a
// periodic task set is a graph of edge-free own-period nodes.  Nodes
// may also declare shared resources (named, integer capacity) they must hold
// while executing — the graph executive (sched/graph_executive.hpp)
// accounts the resulting blocking time separately from execution.
//
// Validation is strict and path-qualified: a cyclic graph is rejected
// with the actual cycle spelled out ("cycle: a -> b -> a"), edge and
// resource references must name declared nodes/resources, and names
// must be unique — the scenario layer re-throws these at the JSON
// path that declared the graph.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace adacheck::sched {

/// One DAG node: a paper-model job plus the shared resources it holds
/// while executing (all-or-nothing acquisition, one unit each).
struct GraphNode {
  std::string name;
  double cycles = 0.0;           ///< worst-case cycles (at f1 = 1)
  int fault_tolerance = 0;       ///< k for this node's job
  std::string policy = "A_D_S";  ///< checkpointing scheme
  std::vector<std::size_t> resources;  ///< indices into TaskGraph::resources
  double period = 0.0;    ///< own release separation (0 = with the graph)
  double deadline = 0.0;  ///< relative, <= period (0 = implicit: == period)
  double phase = 0.0;     ///< first own release time

  bool own_period() const noexcept { return period > 0.0; }
  double relative_deadline() const noexcept {
    return deadline > 0.0 ? deadline : period;
  }
};

/// A shared resource with integer capacity (units held concurrently).
struct GraphResource {
  std::string name;
  int capacity = 1;
};

/// Precedence edge: `to` cannot start before `from` completes.
struct GraphEdge {
  std::size_t from = 0;
  std::size_t to = 0;
};

struct TaskGraph {
  std::string name = "graph";
  double period = 0.0;    ///< release separation of whole instances
  double deadline = 0.0;  ///< end-to-end, relative (0 = implicit: == period)
  std::vector<GraphNode> nodes;
  std::vector<GraphEdge> edges;
  std::vector<GraphResource> resources;

  double end_to_end_deadline() const noexcept {
    return deadline > 0.0 ? deadline : period;
  }

  /// Appends a node; returns its index.
  std::size_t add_node(GraphNode node);
  /// Appends an edge by node names; throws std::invalid_argument when
  /// either name is undeclared.
  void add_edge(const std::string& from, const std::string& to);
  /// Appends a resource; returns its index (for GraphNode::resources).
  std::size_t add_resource(std::string name, int capacity = 1);

  /// Index of the named node; throws std::invalid_argument when absent.
  std::size_t node_index(std::string_view node_name) const;

  /// Throws std::invalid_argument on: no nodes, non-positive period or
  /// cycles, negative k, duplicate node/resource names, out-of-range
  /// edge or resource references, duplicate resource refs on a node,
  /// capacity < 1, self-edges, a cycle (error names the path), a
  /// negative node period or phase, a node deadline outside
  /// [0, node period], a node deadline or phase without a node
  /// period, or an edge on an own-period node.
  void validate() const;

  /// Node indices in topological order; among simultaneously ready
  /// nodes the smallest index comes first (Kahn's algorithm) so the
  /// order is deterministic.  Requires a valid acyclic graph.
  std::vector<std::size_t> topological_order() const;

  /// Per-node inclusive downstream critical path in cycles: the node's
  /// own cycles plus the longest successor chain.  Feeds the
  /// critical-path and least-laxity scheduler policies.
  std::vector<double> downstream_path_cycles() const;

  /// Cycles along the longest path through the graph.
  double critical_path_cycles() const;
};

}  // namespace adacheck::sched
