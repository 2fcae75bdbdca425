//===- perfbench/src/main.cpp - netupd end-to-end benchmark ---------------===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One workload per invocation:
///
///   netupd_perfbench --workload <name> [--seed N] [--seconds S]
///                    [--trace 0|1] [--out-dir DIR]
///
/// Each run first self-tests the oracle, then builds the workload from
/// the seed at least three times (setup_s is the median), warms the
/// process up with one small job, and submits the workload as one batch
/// to a fresh SynthEngine again and again until --seconds of batch time
/// are spent.
/// Every report is checked by the independent oracle outside the timed
/// region. With --trace 1 the batches alternate untraced / traced; the
/// traced ones run every job through the "traced:" checker decorator
/// with the obs detail tier on, and the recorded stream is replayed
/// against KripkeStructure and the incremental, batch and hsa backends
/// afterwards. The last line of stdout is one JSON object: correct,
/// attempted, failed, and the end-to-end (--trace 0) or per-layer
/// (--trace 1) metrics.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "topo/Generators.h"

#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

using namespace perfbench;

namespace {

/// The default workload seed. plan.json records it together with the
/// holdout seed a performance claim must also be checked on.
constexpr uint64_t DefaultSeed = 20150613;

/// Threads the oracle may use between batches (never while timing).
constexpr unsigned OracleThreads = 4;

/// Recorded rechecks replayed per backend on the ladder.
constexpr uint64_t LadderRechecks = 5000;

struct Args {
  std::string Workload;
  uint64_t Seed = DefaultSeed;
  double Seconds = 10.0;
  bool Trace = false;
  std::string OutDir;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    char *End = nullptr;
    if (K == "--workload") {
      A.Workload = V;
    } else if (K == "--seed") {
      A.Seed = std::strtoull(V.c_str(), &End, 10);
      if (V.empty() || *End)
        return false;
    } else if (K == "--seconds") {
      A.Seconds = std::strtod(V.c_str(), &End);
      if (V.empty() || *End || !(A.Seconds > 0) || A.Seconds > 3600)
        return false;
    } else if (K == "--trace") {
      if (V != "0" && V != "1")
        return false;
      A.Trace = V == "1";
    } else if (K == "--out-dir") {
      A.OutDir = V;
    } else {
      return false;
    }
  }
  return !A.Workload.empty();
}

double cpuSeconds() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_utime.tv_sec + U.ru_utime.tv_usec / 1e6 + U.ru_stime.tv_sec +
         U.ru_stime.tv_usec / 1e6;
}

double peakRssMb() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // Linux reports kilobytes.
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * V.size()));
  return V[std::min(V.size() - 1, Rank ? Rank - 1 : 0)];
}

/// Hands the heap's free memory back to the system. Set-up and the
/// oracle's replays between batches leave the heap full of freed,
/// scattered blocks; a paper-scale batch that started on them ran ~40%
/// slower, by an amount that varied from batch to batch. Every timed
/// region (each set-up and each batch) therefore starts after this.
void releaseFreeMemory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

/// One batch: every job of the workload, submitted to a fresh engine.
struct Batch {
  double Wall = 0.0, Cpu = 0.0;
  std::vector<SynthReport> Reports;
  std::vector<uint64_t> SubmitNs, DoneNs;

  double jobsPerS() const { return Reports.size() / Wall; }
  uint64_t updateWaits() const {
    uint64_t N = 0;
    for (const SynthReport &R : Reports)
      if (R.ok())
        N += countWaits(R.Result.Commands);
    return N;
  }
  uint64_t budgetSpent() const {
    uint64_t N = 0;
    for (const SynthReport &R : Reports)
      N += R.Result.Stats.BudgetSpent;
    return N;
  }
  std::vector<SynthStatus> verdicts() const {
    std::vector<SynthStatus> V;
    for (const SynthReport &R : Reports)
      V.push_back(R.Result.Status);
    return V;
  }
};

Batch runBatch(const Workload &W, bool Traced) {
  // Copies are made before the clock starts; submit() takes them by move.
  std::vector<SynthJob> Jobs;
  Jobs.reserve(W.Jobs.size());
  for (const BenchJob &J : W.Jobs) {
    Jobs.push_back(J.Job);
    if (Traced)
      for (PortfolioMember &M : Jobs.back().Portfolio)
        M.Backend = TracedPrefix + M.Backend;
  }
  obs::setDetail(Traced);
  obs::setTracing(false);

  releaseFreeMemory();
  EngineOptions EO;
  EO.NumWorkers = W.Workers;
  SynthEngine Engine(EO);
  Batch B;
  size_t N = Jobs.size();
  B.SubmitNs.resize(N);
  B.DoneNs.resize(N);
  std::vector<JobHandle> Handles(N);

  double Cpu0 = cpuSeconds();
  uint64_t T0 = nowNs();
  for (size_t I = 0; I != N; ++I) {
    B.SubmitNs[I] = nowNs();
    Handles[I] = Engine.submit(std::move(Jobs[I]));
  }
  // Waiting in submission order wakes this thread once per finished
  // job: ~14k times a second on repeat-stream, each wake-up taking a
  // core from a worker. Waiting on the last job first sleeps through
  // nearly the whole batch instead.
  for (size_t I = N; I-- != 0;)
    Handles[I].wait();
  B.Wall = (nowNs() - T0) / 1e9;
  B.Cpu = cpuSeconds() - Cpu0;

  obs::setDetail(false);
  B.Reports.reserve(N);
  for (size_t I = 0; I != N; ++I) {
    B.Reports.push_back(Handles[I].wait());
    const SynthReport &R = B.Reports.back();
    B.DoneNs[I] = B.SubmitNs[I] + static_cast<uint64_t>(
                                      (R.QueueSeconds + R.Seconds) * 1e9);
  }
  return B;
}

/// Runs one small job through a throwaway engine, so process-wide
/// statics (backend registry, obs registry, the traced backends) exist
/// before anything is timed.
void warmUp() {
  registerTracedBackends();
  obs::MetricsRegistry::instance();
  Rng R(1);
  std::optional<Scenario> S = makeDiamondScenarioRetrying(
      buildFatTree(4), R, PropertyKind::Reachability);
  if (!S)
    return;
  SynthJob Job;
  Job.Name = "warm-up";
  Job.S = std::move(*S);
  EngineOptions EO;
  EO.NumWorkers = 1;
  SynthEngine Engine(EO);
  Engine.run({Job});
}

/// JSON number with every digit the double carries.
std::string num(double V) {
  if (!std::isfinite(V))
    V = 0.0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

struct Metric {
  std::string Name, Unit;
  double Value;
};

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Ms) {
  for (const Metric &M : Ms)
    std::printf("  %-30s %16.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  std::string J = "{\"correct\": ";
  J += Correct ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(Attempted);
  J += ", \"failed\": " + std::to_string(Failed);
  J += ", \"metrics\": {";
  for (size_t I = 0; I != Ms.size(); ++I) {
    if (I)
      J += ", ";
    J += "\"" + Ms[I].Name + "\": {\"value\": " + num(Ms[I].Value) +
         ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
  std::fflush(stdout);
}

/// Summed stats of every member that executed (cache hits ran nothing).
SynthStats executedStats(const Batch &B) {
  SynthStats S;
  for (const SynthReport &R : B.Reports)
    for (const MemberOutcome &O : R.Members)
      S.mergeFrom(O.Stats);
  return S;
}

/// Length of the union of [Start, End) intervals.
uint64_t coveredNs(std::vector<std::pair<uint64_t, uint64_t>> &Iv) {
  std::sort(Iv.begin(), Iv.end());
  uint64_t Total = 0, CurS = 0, CurE = 0;
  bool Open = false;
  for (const auto &[S, E] : Iv) {
    if (!Open || S > CurE) {
      if (Open)
        Total += CurE - CurS;
      CurS = S;
      CurE = E;
      Open = true;
    } else {
      CurE = std::max(CurE, E);
    }
  }
  if (Open)
    Total += CurE - CurS;
  return Total;
}

/// Writes the traced batch's spans as Chrome-trace JSON: one "job" span
/// per submit-to-wait interval and one span per checker call, each
/// carrying its job index.
void writeSpans(const std::string &Path, const Batch &B,
                const std::vector<McSpan> &Spans) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return;
  uint64_t Origin = B.SubmitNs.empty() ? 0 : B.SubmitNs[0];
  for (const McSpan &S : Spans)
    Origin = std::min(Origin, S.StartNs);
  std::fprintf(F, "{\"traceEvents\": [\n");
  bool First = true;
  auto Emit = [&](const char *Name, long Job, uint64_t S, uint64_t E,
                  long Tid) {
    std::fprintf(F,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %ld, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"job\": %ld}}",
                 First ? "" : ",\n", Name, Tid, (S - Origin) / 1e3,
                 (E - S) / 1e3, Job);
    First = false;
  };
  for (size_t I = 0; I != B.SubmitNs.size(); ++I)
    Emit("engine.job", static_cast<long>(I), B.SubmitNs[I], B.DoneNs[I], 0);
  static const char *Names[] = {"mc.bind", "mc.recheck", "mc.rollback"};
  for (const McSpan &S : Spans)
    Emit(Names[S.K], S.Job, S.StartNs, S.EndNs, 1 + S.Job);
  std::fprintf(F, "\n]}\n");
  std::fclose(F);
}


/// The per-layer metrics of one traced batch \p B, its checker spans
/// and its recorded stream. A replayed recheck that disagrees with the
/// recorded verdict is a correctness failure, reported in \p Why.
std::vector<Metric> layerMetrics(const Workload &W, const Batch &B,
                                 const std::vector<McSpan> &Spans,
                                 const std::vector<StreamSegment> &Segs,
                                 std::vector<std::string> &Why) {
  auto Frac = [](double Num, double Den) { return Den > 0 ? Num / Den : 0.0; };
  auto Count = [](uint64_t N) { return static_cast<double>(N); };

  SynthStats St = executedStats(B);
  std::vector<double> QueueS, OverheadS;
  double JobS = 0.0, MemberS = 0.0;
  uint64_t Hits = 0;
  for (const SynthReport &R : B.Reports) {
    QueueS.push_back(R.QueueSeconds);
    JobS += R.Seconds;
    Hits += R.FromCache;
    if (R.FromCache)
      continue;
    double M = 0.0;
    for (const MemberOutcome &Mo : R.Members)
      M += Mo.Seconds;
    MemberS += M;
    OverheadS.push_back(R.Seconds - M);
  }

  // synth self time: member time minus the part of it that checker
  // spans cover (their union per job, since a job's shards overlap).
  uint64_t Binds = 0, Rechecks = 0, CexRechecks = 0, BindNs = 0,
           RecheckNs = 0, McNs = 0, McCovered = 0;
  std::map<long, std::vector<std::pair<uint64_t, uint64_t>>> PerJob;
  for (const McSpan &S : Spans) {
    uint64_t D = S.EndNs - S.StartNs;
    McNs += D;
    if (S.K == McSpan::Bind) {
      ++Binds;
      BindNs += D;
    } else if (S.K == McSpan::Recheck) {
      ++Rechecks;
      RecheckNs += D;
      CexRechecks += S.Failed;
    }
    PerJob[S.Job].push_back({S.StartNs, S.EndNs});
  }
  for (auto &[Job, Iv] : PerJob)
    McCovered += coveredNs(Iv);

  KripkeReplay KR = replayKripke(W, Segs);
  uint64_t Mismatches = 0;
  auto Ladder = [&](const char *Backend) {
    return replayBackend(W, Segs, Backend, LadderRechecks, Mismatches);
  };
  double LadderIncr = Ladder("incremental");
  double LadderBatch = Ladder("batch");
  double LadderHsa = Ladder("hsa");
  if (Mismatches)
    Why.push_back("stream replay: " + std::to_string(Mismatches) +
                  " rechecks disagree with the recorded verdict");
  std::printf("%zu spans, %zu stream segments, %llu replayed updates\n",
              Spans.size(), Segs.size(),
              static_cast<unsigned long long>(KR.Updates));

  uint64_t Prunes = St.VisitedPrunes + St.CexPrunes + St.SeededPrunes;
  return {
      {"engine.queue_p50_ms", "ms", 1e3 * percentile(QueueS, 0.50)},
      {"engine.busy_frac", "ratio", Frac(JobS, W.Workers * B.Wall)},
      {"engine.overhead_p50_ms", "ms", 1e3 * percentile(OverheadS, 0.50)},
      {"engine.cache_hit_frac", "ratio",
       Frac(Count(Hits), Count(B.Reports.size()))},
      {"engine.shed_members", "count", Count(St.ShedMembers)},
      {"synth.self_s", "s", MemberS - McCovered / 1e9},
      {"synth.check_calls", "count", Count(St.CheckCalls)},
      {"synth.stolen_tasks", "count", Count(St.StolenTasks)},
      {"synth.prune_hit_frac", "ratio",
       Frac(Count(Prunes), Count(Prunes + St.CheckCalls))},
      {"synth.prune_s", "s", St.PruneSeconds},
      {"synth.mutate_s", "s", St.MutateSeconds},
      {"synth.wait_removal_s", "s", St.WaitRemovalSeconds},
      {"synth.budget_spent", "count", Count(B.budgetSpent())},
      {"mc.binds", "count", Count(Binds)},
      {"mc.rechecks", "count", Count(Rechecks)},
      {"mc.bind_us", "us", Frac(BindNs / 1e3, Count(Binds))},
      {"mc.recheck_us", "us", Frac(RecheckNs / 1e3, Count(Rechecks))},
      {"mc.busy_s", "s", McNs / 1e9},
      {"mc.cex_frac", "ratio", Frac(Count(CexRechecks), Count(Rechecks))},
      {"mc.replay_incremental_us", "us", LadderIncr},
      {"mc.replay_batch_us", "us", LadderBatch},
      {"mc.replay_hsa_us", "us", LadderHsa},
      {"kripke.build_ms", "ms", KR.BuildMsMedian},
      {"kripke.apply_undo_ns", "ns", KR.ApplyUndoNs},
      {"kripke.changed_states", "count", KR.ChangedStates},
      {"sat.s", "s", St.SatSeconds},
      {"sat.clauses", "count", Count(St.SatClauses)},
      {"learn.imported", "count", Count(St.ImportedConstraints)},
      {"learn.exported", "count", Count(St.ExportedConstraints)},
      {"learn.seeded_prunes", "count", Count(St.SeededPrunes)},
      {"learn.subsumed_dropped", "count", Count(St.SubsumedDropped)},
  };
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: netupd_perfbench --workload <name> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--out-dir DIR]\n");
    return 2;
  }

  std::string SelfTestWhy;
  bool SelfTestOk = oracleSelfTest(&SelfTestWhy);
  std::printf("oracle self-test: %s%s\n", SelfTestOk ? "ok" : "FAILED: ",
              SelfTestWhy.c_str());

  // Set-up: topologies, scenarios, jobs, and one engine; repeated at
  // least three times and for at least a second, so the median is not
  // one scheduler hiccup.
  Workload W;
  std::vector<double> SetupS, TopoS;
  for (double Total = 0.0; SetupS.size() < 3 || Total < 1.0;) {
    W = Workload();
    releaseFreeMemory();
    uint64_t T0 = nowNs();
    if (!makeWorkload(A.Workload, A.Seed, W)) {
      std::fprintf(stderr, "unknown workload '%s'\n", A.Workload.c_str());
      return 2;
    }
    {
      EngineOptions EO;
      EO.NumWorkers = W.Workers;
      SynthEngine Engine(EO);
    }
    SetupS.push_back((nowNs() - T0) / 1e9);
    TopoS.push_back(W.TopoSeconds);
    Total += SetupS.back();
  }
  std::printf("workload %s, seed %llu: %zu jobs over %zu base scenarios, "
              "%u workers\n",
              W.Name.c_str(), static_cast<unsigned long long>(A.Seed),
              W.Jobs.size(), W.Bases.size(), W.Workers);

  warmUp();
  obs::setDetail(false);
  obs::setTracing(false);

  Oracle O(W);
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Why;
  auto Judge = [&](const Batch &B) {
    Attempted += B.Reports.size();
    Failed += O.judgeBatch(B.Reports, OracleThreads, Why);
  };

  std::vector<Metric> Out;
  if (!A.Trace) {
    // A job's verdict time is the median of its times over the run's
    // batches (every batch holds the same jobs); the percentiles are
    // taken over those per-job medians. Pooling every sample instead
    // lets a slow spell of the host that covers a tenth of the batches
    // make up the whole tail. p90 needs ten samples beyond it, so a
    // workload with fewer than 100 jobs a batch (deep-proof) pools.
    bool PerJob = W.Jobs.size() >= 100;
    std::vector<double> Jps, CpuMs, Waits;
    double PeakRss = 0.0;
    std::vector<std::vector<double>> JobS(W.Jobs.size());
    for (double Spent = 0.0; Spent < A.Seconds;) {
      Batch B = runBatch(W, false);
      Spent += B.Wall;
      double Cpu = 1e3 * B.Cpu / B.Reports.size();
      std::vector<double> BatchS;
      for (const SynthReport &R : B.Reports)
        BatchS.push_back(R.Seconds);
      std::printf("batch %zu: %.3f s, %.2f jobs/s, %.3f cpu-ms/job, "
                  "p50 %.3f ms, p90 %.3f ms\n",
                  Jps.size(), B.Wall, B.jobsPerS(), Cpu,
                  1e3 * percentile(BatchS, 0.50),
                  1e3 * percentile(BatchS, 0.90));
      Jps.push_back(B.jobsPerS());
      CpuMs.push_back(Cpu);
      Waits.push_back(static_cast<double>(B.updateWaits()));
      for (size_t I = 0; I != BatchS.size(); ++I)
        JobS[I].push_back(BatchS[I]);
      // Peak memory through set-up and one batch, before the oracle
      // runs. Every batch spawns its worker and shard threads afresh,
      // and the allocator's per-thread arenas creep upward over the
      // batches, so a whole run's peak grew with its length (on
      // deep-proof its spread over ten seeds halved measured here).
      if (Jps.size() == 1)
        PeakRss = peakRssMb();
      Judge(B);
    }
    std::vector<double> VerdictS;
    for (const std::vector<double> &S : JobS)
      if (PerJob)
        VerdictS.push_back(median(S));
      else
        VerdictS.insert(VerdictS.end(), S.begin(), S.end());
    std::printf("%zu batches, %zu verdict samples%s\n", Jps.size(),
                VerdictS.size(), PerJob ? " (per-job medians)" : "");
    Out = {{"jobs_per_s", "1/s", median(Jps)},
           {"verdict_p50_ms", "ms", 1e3 * percentile(VerdictS, 0.50)},
           {"verdict_p90_ms", "ms", 1e3 * percentile(VerdictS, 0.90)},
           {"cpu_ms_per_job", "ms", median(CpuMs)},
           {"update_waits", "count", median(Waits)},
           {"setup_s", "s", median(SetupS)},
           {"peak_rss_mb", "MB", PeakRss}};
  } else {
    // Untraced and traced batches alternate (ABAB). The first traced
    // batch supplies the per-layer numbers; every traced batch must
    // reproduce its untraced twin's verdicts and exact counts.
    std::vector<double> PlainJps, TracedJps;
    Batch First;
    std::vector<McSpan> Spans;
    std::vector<StreamSegment> Segs;
    for (double Spent = 0.0; Spent < A.Seconds;) {
      Batch P = runBatch(W, false);
      Batch T = runBatch(W, true);
      Spent += P.Wall + T.Wall;
      PlainJps.push_back(P.jobsPerS());
      TracedJps.push_back(T.jobsPerS());
      if (T.verdicts() != P.verdicts() ||
          T.updateWaits() != P.updateWaits() ||
          T.budgetSpent() != P.budgetSpent())
        Why.push_back("traced batch changed a verdict, update_waits or "
                      "budget_spent");
      Judge(P);
      Judge(T);
      std::vector<McSpan> S;
      std::vector<StreamSegment> G;
      Recorder::instance().take(S, G);
      if (TracedJps.size() == 1) {
        First = std::move(T);
        Spans = std::move(S);
        Segs = std::move(G);
      }
    }
    std::printf("%zu untraced + %zu traced batches\n", PlainJps.size(),
                TracedJps.size());
    Out = layerMetrics(W, First, Spans, Segs, Why);
    Out.push_back({"topo.build_s", "s", median(TopoS)});
    Out.push_back({"obs.trace_overhead_frac", "ratio",
                   1.0 - median(TracedJps) / median(PlainJps)});
    if (!A.OutDir.empty())
      writeSpans(A.OutDir + "/spans-" + W.Name + ".json", First, Spans);
  }

  // Judged failures, a traced batch that diverged, a replay mismatch or
  // a failed self-test all make the run incorrect.
  bool Correct = SelfTestOk && Why.empty();
  for (size_t I = 0; I != Why.size() && I != 10; ++I)
    std::printf("FAIL %s\n", Why[I].c_str());
  printResult(Correct, Attempted, Failed, Out);
  return 0;
}
