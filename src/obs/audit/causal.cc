#include "obs/audit/causal.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace lamp::obs::audit {

namespace {

/// Decoded kNetCausalDeliver payload (see obs/trace.h kind comment).
struct Delivery {
  std::uint32_t node = 0;
  std::uint64_t depth = 0;
  std::uint32_t parent = 0;  // Parent transition + 1; 0 = heartbeat origin.
};

}  // namespace

JsonValue CausalReport::ToJson() const {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", "lamp.causal.v1");
  doc.Set("deliveries", deliveries);
  doc.Set("max_depth", static_cast<std::int64_t>(max_depth));
  doc.Set("has_output", has_output);
  doc.Set("coordination_depth", static_cast<std::int64_t>(coordination_depth));
  doc.Set("outputs", outputs);
  doc.Set("coordination_free", CoordinationFree());
  JsonValue path = JsonValue::Array();
  for (const CausalStep& step : critical_path) {
    JsonValue s = JsonValue::Object();
    s.Set("transition", static_cast<std::size_t>(step.transition));
    s.Set("node", static_cast<std::size_t>(step.node));
    s.Set("depth", static_cast<std::int64_t>(step.depth));
    path.PushBack(std::move(s));
  }
  doc.Set("critical_path", std::move(path));
  return doc;
}

std::optional<CausalReport> CausalReport::FromJson(const JsonValue& doc) {
  if (!doc.IsObject()) return std::nullopt;
  const JsonValue* tag = doc.Find("schema");
  if (tag == nullptr || !tag->IsString() ||
      tag->AsString() != "lamp.causal.v1") {
    return std::nullopt;
  }
  CausalReport report;
  if (const JsonValue* v = doc.Find("deliveries"); v != nullptr) {
    report.deliveries = static_cast<std::size_t>(v->AsInt());
  }
  if (const JsonValue* v = doc.Find("max_depth"); v != nullptr) {
    report.max_depth = static_cast<std::uint64_t>(v->AsInt());
  }
  if (const JsonValue* v = doc.Find("has_output"); v != nullptr && v->IsBool()) {
    report.has_output = v->AsBool();
  }
  if (const JsonValue* v = doc.Find("coordination_depth"); v != nullptr) {
    report.coordination_depth = static_cast<std::uint64_t>(v->AsInt());
  }
  if (const JsonValue* v = doc.Find("outputs"); v != nullptr) {
    report.outputs = static_cast<std::size_t>(v->AsInt());
  }
  if (const JsonValue* path = doc.Find("critical_path");
      path != nullptr && path->IsArray()) {
    for (std::size_t i = 0; i < path->size(); ++i) {
      const JsonValue& s = path->at(i);
      CausalStep step;
      if (const JsonValue* t = s.Find("transition"); t != nullptr) {
        step.transition = static_cast<std::uint32_t>(t->AsInt());
      }
      if (const JsonValue* n = s.Find("node"); n != nullptr) {
        step.node = static_cast<std::uint32_t>(n->AsInt());
      }
      if (const JsonValue* d = s.Find("depth"); d != nullptr) {
        step.depth = static_cast<std::uint64_t>(d->AsInt());
      }
      report.critical_path.push_back(step);
    }
  }
  return report;
}

std::string CausalReport::Render() const {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "deliveries=%zu max_depth=%llu outputs=%zu"
                " coordination_depth=%llu (%s)\n",
                deliveries, static_cast<unsigned long long>(max_depth),
                outputs, static_cast<unsigned long long>(coordination_depth),
                has_output
                    ? (CoordinationFree() ? "coordination-free" : "coordinated")
                    : "no output");
  out += buf;
  if (!critical_path.empty()) {
    out += "critical path (root -> deepest):\n";
    for (const CausalStep& step : critical_path) {
      std::snprintf(buf, sizeof(buf),
                    "  depth %llu: node %u (transition %u)\n",
                    static_cast<unsigned long long>(step.depth), step.node,
                    step.transition);
      out += buf;
    }
  }
  return out;
}

CausalReport BuildCausalReport(const dist::MergedTrace& merged) {
  std::vector<std::pair<std::uint32_t, Delivery>> deliveries;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> outputs;
  for (const dist::AlignedEvent& ae : dist::AlignedEvents(merged)) {
    const dist::ShardEvent& e = *ae.event;
    if (e.kind == "net.causal_deliver") {
      Delivery d;
      d.node = e.a;
      d.depth = e.value >> 32;
      d.parent = static_cast<std::uint32_t>(e.value & 0xffffffffu);
      deliveries.emplace_back(e.b, d);
    } else if (e.kind == "net.output") {
      outputs.emplace_back(e.b, e.value);
    }
  }
  if (deliveries.empty()) {
    deliveries.reserve(merged.pairs.size());
    for (std::size_t i = 0; i < merged.pairs.size(); ++i) {
      const dist::MatchedPair& pair = merged.pairs[i];
      Delivery d;
      d.node = pair.to;
      d.depth = pair.depth;
      d.parent = pair.parent;  // Already "pair index + 1, 0 = root".
      deliveries.emplace_back(static_cast<std::uint32_t>(i), d);
    }
  }

  CausalReport report;
  report.deliveries = deliveries.size();
  report.outputs = outputs.size();
  if (!outputs.empty()) {
    report.has_output = true;
    report.coordination_depth = outputs.front().second;
  }

  std::unordered_map<std::uint32_t, Delivery> by_transition;
  by_transition.reserve(deliveries.size());
  bool have_deepest = false;
  std::uint32_t deepest = 0;
  for (const auto& [transition, d] : deliveries) {
    by_transition[transition] = d;
    if (d.depth > report.max_depth || !have_deepest) {
      report.max_depth = d.depth;
      deepest = transition;
      have_deepest = true;
    }
  }

  // Walk parent pointers from the deepest delivery back to a
  // heartbeat-originated message, then reverse into root-first order.
  // The guard on strictly shrinking depth makes the walk total even on a
  // trace whose ring buffer dropped the parent events.
  if (have_deepest) {
    std::uint32_t transition = deepest;
    std::uint64_t prev_depth = report.max_depth + 1;
    while (true) {
      const auto it = by_transition.find(transition);
      if (it == by_transition.end() || it->second.depth >= prev_depth) break;
      report.critical_path.push_back(
          {transition, it->second.node, it->second.depth});
      prev_depth = it->second.depth;
      if (it->second.parent == 0) break;
      transition = it->second.parent - 1;
    }
    std::reverse(report.critical_path.begin(), report.critical_path.end());
  }
  return report;
}

}  // namespace lamp::obs::audit
