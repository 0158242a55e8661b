#include "msc/charts.hpp"

#include <stdexcept>
#include <string>

#include "la1/msc_spec.hpp"
#include "msc/parse.hpp"

namespace la1::msc {

namespace {

Chart parse_fixture(const char* text, const char* label) {
  Chart chart = parse_chart(text, label);
  const auto issues = chart.validate();
  if (!issues.empty()) {
    throw std::logic_error(std::string(label) + ": " + issues.front());
  }
  return chart;
}

}  // namespace

Chart read_mode_chart() {
  return parse_fixture(core::read_mode_msc(), "read_mode.msc");
}

Chart write_mode_chart() {
  return parse_fixture(core::write_mode_msc(), "write_mode.msc");
}

}  // namespace la1::msc
