#include "flow/report.hpp"

#include <sstream>

#include "util/table.hpp"

namespace la1::flow {

std::string FlowReport::render() const {
  std::ostringstream out;
  out << "flow analysis of " << target;
  if (banks > 0) out << " (" << banks << " bank(s))";
  out << "\n";
  out << findings.render();
  if (!labels.empty()) {
    util::Table t({"Label", "Seed Bits", "Reached Bits", "Tainted Sinks"});
    for (const LabelFlow& l : labels) {
      std::string sinks;
      for (const std::string& s : l.tainted_sinks) {
        if (!sinks.empty()) sinks += ", ";
        sinks += s;
      }
      if (sinks.empty()) sinks.push_back('-');
      t.add_row({l.label, std::to_string(l.seed_bits),
                 std::to_string(l.reached_bits), sinks});
    }
    out << t.render();
  }
  if (!cones.empty()) {
    util::Table t({"Property", "Cone Regs", "Total Regs", "Cone Inputs",
                   "Total Inputs", "Substituted"});
    for (const PropertyCone& c : cones) {
      t.add_row({c.property, std::to_string(c.cone_state_bits),
                 std::to_string(c.total_state_bits),
                 std::to_string(c.cone_inputs),
                 std::to_string(c.total_inputs),
                 std::to_string(c.substituted)});
    }
    out << t.render();
  }
  return out.str();
}

util::Json FlowReport::to_json() const {
  util::Json j = util::Json::object();
  j.set("target", target);
  j.set("banks", banks);
  j.set("findings", findings.to_json());
  util::Json larr = util::Json::array();
  for (const LabelFlow& l : labels) {
    util::Json item = util::Json::object();
    item.set("label", l.label);
    item.set("seed_bits", l.seed_bits);
    item.set("reached_bits", l.reached_bits);
    util::Json sinks = util::Json::array();
    for (const std::string& s : l.tainted_sinks) sinks.push(s);
    item.set("tainted_sinks", std::move(sinks));
    larr.push(std::move(item));
  }
  j.set("labels", std::move(larr));
  util::Json carr = util::Json::array();
  for (const PropertyCone& c : cones) {
    util::Json item = util::Json::object();
    item.set("property", c.property);
    item.set("cone_state_bits", c.cone_state_bits);
    item.set("total_state_bits", c.total_state_bits);
    item.set("cone_inputs", c.cone_inputs);
    item.set("total_inputs", c.total_inputs);
    item.set("substituted", c.substituted);
    carr.push(std::move(item));
  }
  j.set("cones", std::move(carr));
  return j;
}

}  // namespace la1::flow
