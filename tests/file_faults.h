// Test helper: fails chosen file operations of util/file_io through its
// FileFaultHook, for as long as a ScopedFileFault lives.

#ifndef DDSKETCH_TESTS_FILE_FAULTS_H_
#define DDSKETCH_TESTS_FILE_FAULTS_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/file_io.h"

namespace dd {

/// Fails `op` with `error` on every path that ends in `suffix`, at most
/// `times` times, until destroyed. The hook is process-wide, so at most
/// one lives at a time. Threads of the code under test (committers, the
/// maintenance thread) may run the hook: each fault's rule is written
/// once, before the hook that reads it is installed, and is kept until
/// the process exits, so no thread can read a rule while it changes.
class ScopedFileFault {
 public:
  static constexpr int64_t kAlways = std::numeric_limits<int64_t>::max();

  ScopedFileFault(FileOp op, std::string suffix, int error,
                  int64_t times = kAlways)
      : rule_(Rules()
                  .emplace_back(std::make_unique<Rule>(op, std::move(suffix),
                                                       error, times))
                  .get()) {
    Current().store(rule_, std::memory_order_release);
    SetFileFaultHook(&Hook);
  }
  ~ScopedFileFault() {
    SetFileFaultHook(nullptr);
    Current().store(nullptr, std::memory_order_release);
  }
  ScopedFileFault(const ScopedFileFault&) = delete;
  ScopedFileFault& operator=(const ScopedFileFault&) = delete;

  /// How many operations this fault has failed so far.
  int64_t fired() const { return rule_->fired.load(); }

 private:
  struct Rule {
    Rule(FileOp op, std::string suffix, int error, int64_t times)
        : op(op), suffix(std::move(suffix)), error(error), left(times) {}
    const FileOp op;
    const std::string suffix;
    const int error;
    std::atomic<int64_t> left;
    std::atomic<int64_t> fired{0};
  };
  static std::vector<std::unique_ptr<Rule>>& Rules() {
    static std::vector<std::unique_ptr<Rule>> rules;
    return rules;
  }
  static std::atomic<Rule*>& Current() {
    static std::atomic<Rule*> current{nullptr};
    return current;
  }
  static int Hook(FileOp op, const std::string& path) {
    Rule* rule = Current().load(std::memory_order_acquire);
    if (rule == nullptr || op != rule->op || !path.ends_with(rule->suffix)) {
      return 0;
    }
    if (rule->left.fetch_sub(1) <= 0) return 0;
    rule->fired.fetch_add(1);
    return rule->error;
  }

  Rule* rule_;
};

}  // namespace dd

#endif  // DDSKETCH_TESTS_FILE_FAULTS_H_
