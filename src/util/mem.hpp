// Process memory probes, used to reproduce the paper's "Memory (in MB)"
// column of Table 2.
#pragma once

#include <cstddef>

namespace la1::util {

/// Current resident set size in bytes (Linux /proc based); 0 if unavailable.
std::size_t current_rss_bytes();

/// Peak resident set size in bytes of this process image (VmHWM, so a
/// large launcher's footprint does not leak in across exec); 0 if
/// unavailable.
std::size_t peak_rss_bytes();

inline double to_mb(std::size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace la1::util
