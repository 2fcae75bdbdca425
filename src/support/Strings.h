//===- support/Strings.h - String helpers ----------------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string-building helpers shared by the pretty printers: the LTL
/// printer, command-sequence printer, and the benchmark table writers.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_SUPPORT_STRINGS_H
#define NETUPD_SUPPORT_STRINGS_H

#include <cstdint>
#include <string>
#include <vector>

namespace netupd {

/// Joins the elements of \p Parts with \p Sep between consecutive elements.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// Splits \p Text at every occurrence of \p Sep; keeps empty pieces.
std::vector<std::string> split(const std::string &Text, char Sep);

/// Strips ASCII whitespace from both ends.
std::string trim(const std::string &Text);

/// Parses \p Text as an unsigned decimal number: one or more ASCII
/// digits and nothing else (no sign, space, or trailing characters), with
/// a value that fits 64 bits. Returns false, leaving \p Out unspecified,
/// on anything else.
bool parseDecimal(const std::string &Text, uint64_t &Out);

/// printf-style formatting into a std::string.
std::string format(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace netupd

#endif // NETUPD_SUPPORT_STRINGS_H
