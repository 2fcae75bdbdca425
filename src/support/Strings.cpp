//===- support/Strings.cpp - String helpers --------------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "support/Strings.h"

#include <cstdarg>
#include <cstdio>

using namespace netupd;

std::string netupd::join(const std::vector<std::string> &Parts,
                         const std::string &Sep) {
  std::string Out;
  for (size_t I = 0, E = Parts.size(); I != E; ++I) {
    if (I != 0)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

std::vector<std::string> netupd::split(const std::string &Text, char Sep) {
  std::vector<std::string> Out;
  size_t Begin = 0;
  for (size_t I = 0, E = Text.size(); I != E; ++I) {
    if (Text[I] != Sep)
      continue;
    Out.push_back(Text.substr(Begin, I - Begin));
    Begin = I + 1;
  }
  Out.push_back(Text.substr(Begin));
  return Out;
}

std::string netupd::trim(const std::string &Text) {
  size_t Begin = 0;
  size_t End = Text.size();
  while (Begin < End && isspace(static_cast<unsigned char>(Text[Begin])))
    ++Begin;
  while (End > Begin && isspace(static_cast<unsigned char>(Text[End - 1])))
    --End;
  return Text.substr(Begin, End - Begin);
}

bool netupd::parseDecimal(const std::string &Text, uint64_t &Out) {
  if (Text.empty())
    return false;
  uint64_t V = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    uint64_t D = static_cast<uint64_t>(C - '0');
    if (V > (UINT64_MAX - D) / 10)
      return false; // Overflow.
    V = V * 10 + D;
  }
  Out = V;
  return true;
}

std::string netupd::format(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Len = vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  std::string Out;
  if (Len > 0) {
    Out.resize(static_cast<size_t>(Len) + 1);
    vsnprintf(Out.data(), Out.size(), Fmt, ArgsCopy);
    Out.resize(static_cast<size_t>(Len));
  }
  va_end(ArgsCopy);
  return Out;
}
