#pragma once
/// \file io.hpp
/// Task-graph serialization: Graphviz DOT export (for inspection) and a
/// JSON round-trip format carrying the graph, edge payloads and task
/// attributes.

#include <string>

#include "graph/dag.hpp"
#include "graph/task_attrs.hpp"

namespace spmap {

class Json;

/// A task graph bundled with its model attributes.
struct TaskGraph {
  Dag dag;
  TaskAttrs attrs;
};

/// Graphviz DOT rendering; node labels fall back to ids.
std::string to_dot(const Dag& dag);

/// JSON serialization of a task graph (schema: {nodes:[{label, complexity,
/// parallelizability, streamability, area}], edges:[{src, dst, data_mb}]}).
std::string to_json(const Dag& dag, const TaskAttrs& attrs);

/// Parses the format produced by to_json(). Throws spmap::Error on schema
/// violations (missing keys, ids out of range, cycles).
TaskGraph task_graph_from_json(const std::string& text);

/// The same, from an already-parsed document (e.g. a graph embedded in a
/// wire request), without a dump/parse round trip.
TaskGraph task_graph_from_json(const Json& doc);

}  // namespace spmap
