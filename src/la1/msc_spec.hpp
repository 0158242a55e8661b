// The LA-1 specification text (paper §4.1, Figure 3): the read- and
// write-mode scenarios as `.msc` source.
//
// The charts are authored once as fixture files under examples/ and
// embedded at build time, so the spec needs no runtime file IO. Parsing
// them, and compiling monitors, coverage and stimulus from them, is the
// msc layer's job (msc/charts.hpp, msc/compile.hpp).
#pragma once

namespace la1::core {

/// The shipped `.msc` source text (examples/read_mode.msc, embedded).
const char* read_mode_msc();
/// The shipped `.msc` source text (examples/write_mode.msc, embedded).
const char* write_mode_msc();

}  // namespace la1::core
