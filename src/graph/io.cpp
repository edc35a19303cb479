#include "graph/io.hpp"

#include <sstream>

#include "util/json.hpp"

namespace spmap {

std::string to_dot(const Dag& dag) {
  std::ostringstream os;
  os << "digraph spmap {\n  rankdir=TB;\n";
  for (std::size_t i = 0; i < dag.node_count(); ++i) {
    const NodeId n(i);
    os << "  n" << i;
    if (!dag.label(n).empty()) {
      os << " [label=\"" << dag.label(n) << "\"]";
    }
    os << ";\n";
  }
  for (std::size_t e = 0; e < dag.edge_count(); ++e) {
    const EdgeId id(e);
    os << "  n" << dag.src(id).v << " -> n" << dag.dst(id).v << " [label=\""
       << dag.data_mb(id) << " MB\"];\n";
  }
  os << "}\n";
  return os.str();
}

std::string to_json(const Dag& dag, const TaskAttrs& attrs) {
  attrs.validate(dag);
  Json nodes = Json::array();
  for (std::size_t i = 0; i < dag.node_count(); ++i) {
    Json node = Json::object();
    node.set("label", dag.label(NodeId(i)));
    node.set("complexity", attrs.complexity[i]);
    node.set("parallelizability", attrs.parallelizability[i]);
    node.set("streamability", attrs.streamability[i]);
    node.set("area", attrs.area[i]);
    nodes.push_back(std::move(node));
  }
  Json edges = Json::array();
  for (std::size_t e = 0; e < dag.edge_count(); ++e) {
    const EdgeId id(e);
    Json edge = Json::object();
    edge.set("src", static_cast<std::int64_t>(dag.src(id).v));
    edge.set("dst", static_cast<std::int64_t>(dag.dst(id).v));
    edge.set("data_mb", dag.data_mb(id));
    edges.push_back(std::move(edge));
  }
  Json doc = Json::object();
  doc.set("nodes", std::move(nodes));
  doc.set("edges", std::move(edges));
  return doc.dump(2);
}

TaskGraph task_graph_from_json(const std::string& text) {
  return task_graph_from_json(Json::parse(text));
}

TaskGraph task_graph_from_json(const Json& doc) {
  TaskGraph tg;
  const auto& nodes = doc.at("nodes").as_array();
  tg.attrs.resize(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Json& node = nodes[i];
    tg.dag.add_node(node.contains("label") ? node.at("label").as_string()
                                           : std::string{});
    tg.attrs.complexity[i] = node.at("complexity").as_double();
    tg.attrs.parallelizability[i] = node.at("parallelizability").as_double();
    tg.attrs.streamability[i] = node.at("streamability").as_double();
    tg.attrs.area[i] = node.at("area").as_double();
  }
  for (const Json& edge : doc.at("edges").as_array()) {
    const auto s = edge.at("src").as_int();
    const auto d = edge.at("dst").as_int();
    require(s >= 0 && d >= 0 &&
                static_cast<std::size_t>(s) < tg.dag.node_count() &&
                static_cast<std::size_t>(d) < tg.dag.node_count(),
            "task_graph_from_json: edge endpoint out of range");
    tg.dag.add_edge(NodeId(static_cast<std::uint32_t>(s)),
                    NodeId(static_cast<std::uint32_t>(d)),
                    edge.at("data_mb").as_double());
  }
  tg.dag.validate();
  tg.attrs.validate(tg.dag);
  return tg;
}

}  // namespace spmap
