// Runs sketchd as a child process in the production shape of
// docs/OPERATIONS.md and observes it from outside: readiness from its
// "listening" line, CPU time and RSS from /proc/<pid>.

#ifndef PERFBENCH_DAEMON_H_
#define PERFBENCH_DAEMON_H_

#include <cstdint>
#include <memory>
#include <string>

#include <sys/types.h>

namespace pb {

class Daemon {
 public:
  /// Starts `binary` on `data_dir` with --shards 4, a 64 MiB WAL
  /// checkpoint trigger and a 300 s interval trigger, every other flag at
  /// its default, and returns as soon as the daemon prints the port it
  /// listens on. The child is killed if this process dies.
  static std::unique_ptr<Daemon> Launch(const std::string& binary,
                                        const std::string& data_dir);

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  /// SIGKILLs and reaps the daemon if it is still running.
  ~Daemon();

  uint16_t port() const noexcept { return port_; }
  pid_t pid() const noexcept { return pid_; }

  /// User + system CPU the daemon has used so far, in seconds.
  double CpuSeconds() const;
  /// Resident set size, in MiB.
  double RssMb() const;

  /// SIGKILL (a crash: nothing is flushed or checkpointed) and reap.
  void Kill();
  /// SIGTERM (clean shutdown) and reap; throws if the exit is unclean.
  void Stop();

 private:
  Daemon(pid_t pid, int stdout_fd) : pid_(pid), stdout_fd_(stdout_fd) {}
  void Reap(int signal);

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

/// A child process whose SCHED_IDLE threads spin on every vCPU. The
/// kernel runs them only when a vCPU has nothing else to do, so they take
/// no time from sketchd or the generator; what they prevent is the vCPU
/// halting. On a shared VM a halted vCPU waits for the hypervisor to run
/// it again on every wakeup, and in this request/ack ping-pong that wait
/// (reported as steal time) varied throughput by +-25% between runs.
class KeepAwake {
 public:
  /// Forks the spinner; call before this process starts any thread.
  static std::unique_ptr<KeepAwake> Start(int threads);

  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;
  /// Kills and reaps the spinner.
  ~KeepAwake();

 private:
  explicit KeepAwake(pid_t pid) : pid_(pid) {}
  pid_t pid_;
};

}  // namespace pb

#endif  // PERFBENCH_DAEMON_H_
