#include "la1/msc_spec.hpp"

#include "msc_fixtures.hpp"

namespace la1::core {

const char* read_mode_msc() { return fixtures::kReadModeMsc; }

const char* write_mode_msc() { return fixtures::kWriteModeMsc; }

}  // namespace la1::core
