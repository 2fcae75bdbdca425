//===- bench/BenchUtil.h - Shared benchmark harness helpers ----*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the figure-reproduction binaries: a scale knob
/// (NETUPD_BENCH_SCALE environment variable or --scale=N argument, default
/// 1) that grows/shrinks problem sizes, simple aligned table printing, and
/// geometric-mean aggregation for the speedup summaries the paper reports.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_BENCH_BENCHUTIL_H
#define NETUPD_BENCH_BENCHUTIL_H

#include "support/Strings.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace netupd {
namespace benchutil {

/// Parses one scale value; exits with status 2 and a usage message
/// unless \p Text is a whole positive finite number. A silently ignored
/// typo would turn a shrunk CI run into a full-size one.
inline double parseScaleValue(const char *Text, const char *Source) {
  char *End = nullptr;
  double Scale = std::strtod(Text, &End);
  if (End == Text || *End != '\0' || !std::isfinite(Scale) || Scale <= 0) {
    std::fprintf(stderr,
                 "error: %s: invalid scale '%s'\n"
                 "usage: --scale=N or NETUPD_BENCH_SCALE=N, N a positive "
                 "number (1 = default sizes)\n",
                 Source, Text);
    std::exit(2);
  }
  return Scale;
}

/// Parses the scale factor from argv/environment; 1 = default sizes. An
/// argument overrides the environment; invalid values exit (see above).
inline double parseScale(int Argc, char **Argv) {
  double Scale = 1.0;
  if (const char *Env = std::getenv("NETUPD_BENCH_SCALE"))
    Scale = parseScaleValue(Env, "NETUPD_BENCH_SCALE");
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--scale=", 0) == 0)
      Scale = parseScaleValue(Arg.c_str() + 8, "--scale");
  }
  return Scale;
}

/// Prints a header banner naming the reproduced figure.
inline void banner(const std::string &Title) {
  std::printf("==== %s ====\n", Title.c_str());
}

/// Prints one row of space-aligned cells.
inline void row(const std::vector<std::string> &Cells,
                const std::vector<int> &Widths) {
  std::string Line;
  for (size_t I = 0; I != Cells.size(); ++I) {
    int W = I < Widths.size() ? Widths[I] : 12;
    Line += format("%-*s", W, Cells[I].c_str());
  }
  std::printf("%s\n", Line.c_str());
}

/// Geometric mean of positive values; 0 for an empty list.
inline double geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

} // namespace benchutil
} // namespace netupd

#endif // NETUPD_BENCH_BENCHUTIL_H
