#include "util/mem.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>

namespace la1::util {

std::size_t current_rss_bytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long pages_total = 0;
  long pages_resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &pages_total, &pages_resident);
  std::fclose(f);
  const long page = sysconf(_SC_PAGESIZE);
  if (got != 2 || page <= 0) return 0;
  return static_cast<std::size_t>(pages_resident) *
         static_cast<std::size_t>(page);
}

std::size_t peak_rss_bytes() {
  // VmHWM is this image's own high-water mark. getrusage's ru_maxrss is
  // not: Linux carries it across execve, so a process launched from a large
  // parent reports the parent's footprint. It is only the fallback.
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    }
    std::fclose(f);
    if (kb >= 0) return static_cast<std::size_t>(kb) * 1024u;
  }
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // ru_maxrss is in kilobytes on Linux.
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024u;
}

}  // namespace la1::util
