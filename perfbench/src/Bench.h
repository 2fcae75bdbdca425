//===- perfbench/src/Bench.h - End-to-end benchmark internals ---*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared declarations of the netupd benchmark (perfbench/): the three
/// seeded workloads, the independent verdict oracle, and the traced-run
/// instrumentation that prices each layer by timing calls into its
/// public functions from benchmark code. Nothing here changes the
/// program: the benchmark only builds SynthJobs, submits them to a
/// SynthEngine, and checks what comes back.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_PERFBENCH_BENCH_H
#define NETUPD_PERFBENCH_BENCH_H

#include "engine/Engine.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace perfbench {

using namespace netupd;

/// Monotonic nanoseconds for benchmark-side spans.
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Runs \p Fn(I) for every I in [0, N) on up to \p Threads threads
/// (the caller's included) and returns when all calls have.
template <typename F> void parallelFor(size_t N, unsigned Threads, F Fn) {
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < N;)
      Fn(I);
  };
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < Threads && T < N; ++T)
    Pool.emplace_back(Work);
  Work();
  for (std::thread &T : Pool)
    T.join();
}

// --- Workloads --------------------------------------------------------------

/// The answer a job must produce, known by construction.
enum class Expect : uint8_t { Success, Impossible };

/// One base scenario several jobs may request.
struct BaseScenario {
  /// Index of a job carrying this scenario (all requests share it).
  size_t ExampleJob = 0;
  /// True for blackholed proofs: the final configuration itself must
  /// violate the property, which the oracle confirms once.
  bool FinalViolates = false;
};

/// One generated job with its known answer.
struct BenchJob {
  SynthJob Job;
  size_t Base = 0;
  bool RuleGranularity = false;
  Expect Want = Expect::Success;
  /// Runs under a check budget: Aborted is an acceptable answer too.
  bool Budgeted = false;
};

/// A workload: its jobs plus the engine shape they run under.
struct Workload {
  std::string Name;
  unsigned Workers = 1;
  std::vector<BenchJob> Jobs;
  std::vector<BaseScenario> Bases;
  /// Seconds spent building topologies while generating (topo.build_s).
  double TopoSeconds = 0.0;
};

/// Builds workload \p Name from \p Seed; the same seed gives the same
/// jobs. Returns false for an unknown name.
bool makeWorkload(const std::string &Name, uint64_t Seed, Workload &Out);

/// The index of the job whose scenario \p S is (a clone of), or -1.
/// makeWorkload tags every traffic-class display name with it
/// ("j<index>:<name>"); display names are excluded from every digest, so
/// the tag changes no result. The traced run uses it to attribute
/// checker spans to jobs.
long jobTagOf(const Scenario &S);

// --- Oracle -----------------------------------------------------------------

/// Independent checker of reported verdicts. Success sequences are
/// replayed on one KripkeStructure via applySwitchUpdate and every
/// intermediate configuration is checked by enumerating its traces and
/// evaluating the property on each with evalOnTrace (no CheckerBackend
/// is involved). Results are memoized per (base scenario, granularity,
/// sequence digest), so repeated batches only pay for new sequences.
class Oracle {
public:
  explicit Oracle(const Workload &W) : W(W) {}

  /// Judges every report of one batch (reports in job order); returns
  /// the number of failed jobs and appends a reason per failure to
  /// \p Why. Verification of new sequences runs on up to \p Threads
  /// threads.
  size_t judgeBatch(const std::vector<SynthReport> &Reports,
                    unsigned Threads, std::vector<std::string> &Why);

  /// Judges a single report (used by the self-test).
  bool judge(size_t JobIdx, const SynthReport &Rep, std::string *Why);

private:
  bool finalViolates(size_t Base);

  const Workload &W;
  std::mutex M;
  /// Verification outcome per key: empty when the sequence is correct,
  /// else why it is not.
  std::unordered_map<Digest, std::string, DigestHash> Verified;
  std::unordered_map<size_t, bool> FinalChecked;
};

/// The oracle's self-test: an injected naiveSequence order that breaks
/// the property and a flipped verdict must both be counted as failures,
/// and a correct sequence must pass. Returns false (with \p Why) if the
/// oracle lets a wrong answer through or rejects a right one.
bool oracleSelfTest(std::string *Why);

// --- Traced run ---------------------------------------------------------------

/// One call into the checker layer, timed by the benchmark's decorator.
struct McSpan {
  enum Kind : uint8_t { Bind, Recheck, Rollback };
  Kind K = Bind;
  bool Failed = false; // Bind/recheck reported a violation.
  long Job = -1;
  uint64_t StartNs = 0, EndNs = 0;
};

/// One event of the recorded update/rollback stream.
struct StreamEvent {
  bool Rollback = false;
  SwitchId Sw = 0;
  Table NewTable;
  bool Holds = false;
};

/// One bind and what followed it on the same checker instance.
struct StreamSegment {
  long Job = -1;
  Config Start;
  std::vector<StreamEvent> Events;
};

/// Collects spans and stream segments from every traced checker; each
/// checker buffers privately and hands its data over once, when it is
/// destroyed.
class Recorder {
public:
  static Recorder &instance();

  void add(std::vector<McSpan> &&Spans, std::vector<StreamSegment> &&Segs);

  /// Moves everything recorded so far out and starts empty.
  void take(std::vector<McSpan> &Spans, std::vector<StreamSegment> &Segs);

  /// Caps the stream events kept (spans are always kept); segments
  /// beyond the cap are dropped whole.
  static constexpr size_t MaxStreamEvents = 3000000;

private:
  std::mutex M;
  std::vector<McSpan> Spans;
  std::vector<StreamSegment> Segs;
  size_t Events = 0;
};

/// The prefix of the backend specs the traced run uses:
/// "traced:<backend>" forwards to "<backend>" and records every call.
inline const char TracedPrefix[] = "traced:";

/// Registers "traced:incremental", "traced:batch" and "traced:hsa" with
/// the BackendFactory (idempotent).
void registerTracedBackends();

/// Results of replaying a recorded stream against KripkeStructure.
struct KripkeReplay {
  double BuildMsMedian = 0.0;
  double ApplyUndoNs = 0.0; // Per applied update, apply plus its undo.
  double ChangedStates = 0.0; // Mean per applied update.
  uint64_t Updates = 0;
};

KripkeReplay replayKripke(const Workload &W,
                          const std::vector<StreamSegment> &Segs);

/// Replays up to \p MaxRechecks rechecks of the stream against backend
/// \p Name; returns mean microseconds per recheck and counts rechecks
/// whose verdict differs from the recorded one in \p Mismatches.
double replayBackend(const Workload &W,
                     const std::vector<StreamSegment> &Segs,
                     const std::string &Name, uint64_t MaxRechecks,
                     uint64_t &Mismatches);

} // namespace perfbench

#endif // NETUPD_PERFBENCH_BENCH_H
