// The LA-1 Figure-3 scenarios (paper §4.1) as parsed, validated charts:
// the embedded `.msc` text of la1/msc_spec.hpp run through the parser.
#pragma once

#include "msc/ast.hpp"

namespace la1::msc {

/// Figure 3: the read-mode chart, parsed and validated.
Chart read_mode_chart();

/// The write-mode chart (W# at K, address at the following K#, commit at
/// the next K), parsed and validated.
Chart write_mode_chart();

}  // namespace la1::msc
