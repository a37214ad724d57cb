#include "daemon.h"

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.h"

namespace pb {
namespace {

constexpr int kReadyTimeoutMs = 60000;

std::string ProcPath(pid_t pid, const char* leaf) {
  return "/proc/" + std::to_string(pid) + "/" + leaf;
}

// A plain busy loop: a loop of PAUSE instructions would let the
// hypervisor's pause-loop exiting deschedule the vCPU, which is what the
// spinner is there to prevent.
[[noreturn]] void Spin() {
  for (;;) {
    asm volatile("" ::: "memory");
  }
}

}  // namespace

std::unique_ptr<KeepAwake> KeepAwake::Start(int threads) {
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) throw BenchError(std::string("fork: ") + std::strerror(errno));
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(0);
    const sched_param param{};
    if (::sched_setscheduler(0, SCHED_IDLE, &param) != 0) ::_exit(0);
    for (int i = 1; i < threads; ++i) std::thread(Spin).detach();
    Spin();
  }
  return std::unique_ptr<KeepAwake>(new KeepAwake(pid));
}

KeepAwake::~KeepAwake() {
  ::kill(pid_, SIGKILL);
  while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
  }
}

std::unique_ptr<Daemon> Daemon::Launch(const std::string& binary,
                                       const std::string& data_dir) {
  const std::vector<std::string> args = {
      binary,         "--data-dir",
      data_dir,       "--port",
      "0",            "--shards",
      "4",            "--checkpoint-wal-bytes",
      "67108864",     "--checkpoint-interval-s",
      "300"};
  std::vector<char*> argv;
  for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);

  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    throw BenchError(std::string("pipe2: ") + std::strerror(errno));
  }
  const pid_t parent = ::getpid();
  // vfork: the child only makes system calls before exec, and sharing the
  // parent's memory keeps the launch cost independent of the generator's
  // (large, for query_mixed) address space.
  const pid_t pid = ::vfork();
  if (pid < 0) throw BenchError(std::string("vfork: ") + std::strerror(errno));
  if (pid == 0) {
    // Child: stdout into the pipe, die with the parent, become sketchd.
    ::dup2(fds[1], STDOUT_FILENO);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(126);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  std::unique_ptr<Daemon> daemon(new Daemon(pid, fds[0]));

  // Ready = the "listening on HOST:PORT" line; the socket is bound and
  // the event loops run before sketchd prints it.
  std::string out;
  const int64_t deadline = NowNs() + int64_t{kReadyTimeoutMs} * 1000000;
  for (;;) {
    const size_t at = out.find("listening on ");
    const size_t eol = out.find('\n', at == std::string::npos ? 0 : at);
    if (at != std::string::npos && eol != std::string::npos) {
      const std::string line = out.substr(at, eol - at);
      const size_t colon = line.find(':');
      const size_t space = line.find(' ', colon);
      if (colon == std::string::npos || space == std::string::npos) {
        throw BenchError("unexpected sketchd banner: " + line);
      }
      daemon->port_ = static_cast<uint16_t>(
          std::strtoul(line.substr(colon + 1, space - colon - 1).c_str(),
                       nullptr, 10));
      return daemon;
    }
    const int64_t left_ms = (deadline - NowNs()) / 1000000;
    if (left_ms <= 0) throw BenchError("sketchd did not become ready");
    pollfd pfd{fds[0], POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left_ms));
    if (ready < 0 && errno != EINTR) {
      throw BenchError(std::string("poll: ") + std::strerror(errno));
    }
    if (ready <= 0) continue;
    char buf[512];
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw BenchError("sketchd exited before listening");
    out.append(buf, static_cast<size_t>(n));
  }
}

Daemon::~Daemon() {
  if (pid_ > 0) Reap(SIGKILL);
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

void Daemon::Reap(int signal) {
  ::kill(pid_, signal);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  if (signal == SIGTERM && !(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
    throw BenchError("sketchd did not shut down cleanly");
  }
}

void Daemon::Kill() { Reap(SIGKILL); }

void Daemon::Stop() { Reap(SIGTERM); }

double Daemon::CpuSeconds() const {
  std::ifstream in(ProcPath(pid_, "stat"));
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name: state is field 3, utime
  // field 14 and stime field 15 (proc(5)).
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) throw BenchError("cannot read sketchd stat");
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Daemon::RssMb() const {
  std::ifstream in(ProcPath(pid_, "status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw BenchError("cannot read sketchd RSS");
}

}  // namespace pb
