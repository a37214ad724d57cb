// Output checks run by every benchmark run.
//
// The reference is an in-process SketchStore with sketchd's ladder and
// alpha, fed exactly the inputs sketchd acked. DDSketch is fully
// mergeable and its quantiles depend only on bucket counts and the exact
// min/max, so sketchd's answers must equal the reference's bit for bit
// whatever the batching, sharding or rollup grouping. A sample of series
// is also checked against the exact sorted quantiles (within alpha).

#ifndef PERFBENCH_VERIFY_H_
#define PERFBENCH_VERIFY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "server/client.h"
#include "timeseries/sketch_store.h"
#include "workloads.h"

namespace pb {

/// Every failed check of a run, in words. A run with any is incorrect.
struct Verdict {
  std::vector<std::string> problems;
  bool ok() const { return problems.empty(); }
  void Fail(std::string problem) { problems.push_back(std::move(problem)); }
};

dd::SketchStore NewReference();

/// The pool window a log entry refers to.
const Window& WindowOf(const Inputs& in, const std::string& workload,
                       const WindowLog& entry);

/// Feeds `ref` every frame of `windows` that sketchd acked OK.
void FeedAcked(const Inputs& in, const std::string& workload,
               const std::vector<WindowLog>& windows, dd::SketchStore* ref);

/// query_mixed: feeds the history exactly as it went over the wire, then
/// ages it the way sketchd's COMPACT did.
void FeedHistory(const Inputs& in, dd::SketchStore* ref);

/// The dashboard's expected answers for every series of `in` and both
/// windows ending at `in.query_end`.
Answers DashboardAnswers(const dd::SketchStore& ref, const Inputs& in);

/// Queries every series over [start, end) on sketchd and on `ref` and
/// requires identical bits.
void CheckAnswers(dd::SketchClient* client, const dd::SketchStore& ref,
                  size_t series, int64_t start, int64_t end, Verdict* verdict);

/// STATS series and interval counts against the reference.
void CheckStats(const dd::StoreStats& stats, const dd::SketchStore& ref,
                Verdict* verdict);

/// The exact q-quantile (rank floor(q(n-1)), DDSketch's lower quantile)
/// of `sorted` repeated `copies` times, against `ref` over [start, end).
void CheckExact(const dd::SketchStore& ref, const std::string& series,
                int64_t start, int64_t end, const std::vector<double>& sorted,
                uint64_t copies, Verdict* verdict);

/// Acked => durable: reopens sketchd's data directory in-process after a
/// SIGKILL and requires every series' count and answers to match the
/// reference. Returns the reopen time in seconds.
double CheckRecovery(const std::string& data_dir, const dd::SketchStore& ref,
                     size_t series, Verdict* verdict);

}  // namespace pb

#endif  // PERFBENCH_VERIFY_H_
