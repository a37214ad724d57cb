#include "util/file_io.h"

#include <atomic>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

namespace dd {
namespace {

std::atomic<uint64_t> g_fsync_count{0};
std::atomic<FileFaultHook> g_fault_hook{nullptr};

/// Runs `call`, a system call that returns -1 on failure, unless a
/// test's FileFaultHook fails `op` on `path`: then errno is the hook's
/// and the call is not made.
template <typename Call>
auto Faultable(FileOp op, const std::string& path, Call call) {
  if (const FileFaultHook hook = g_fault_hook.load(std::memory_order_acquire)) {
    if (const int error = hook(op, path); error != 0) {
      errno = error;
      return decltype(call())(-1);
    }
  }
  return call();
}

/// Every fsync in this file goes through here so TotalFsyncCount() stays
/// an exact flush census.
int CountedFsync(FileOp op, const std::string& path, int fd) {
  g_fsync_count.fetch_add(1, std::memory_order_relaxed);
  return Faultable(op, path, [fd] { return ::fsync(fd); });
}

std::string Errno(const std::string& op, const std::string& path) {
  return op + " " + path + ": " + std::strerror(errno);
}

Status WriteAll(int fd, std::string_view data, const std::string& path) {
  while (!data.empty()) {
    const ssize_t n = Faultable(FileOp::kWrite, path, [&] {
      return ::write(fd, data.data(), data.size());
    });
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("write", path));
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return Status::OK();
}

/// fsyncs the directory that holds `path`, so that a file created or
/// renamed there survives power loss.
Status SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Status::Internal(Errno("open dir", dir));
  const int rc = CountedFsync(FileOp::kSyncDir, path, fd);
  ::close(fd);
  if (rc != 0) return Status::Internal(Errno("fsync dir", dir));
  return Status::OK();
}

}  // namespace

void SetFileFaultHook(FileFaultHook hook) {
  g_fault_hook.store(hook, std::memory_order_release);
}

uint64_t TotalFsyncCount() {
  return g_fsync_count.load(std::memory_order_relaxed);
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status CreateDirIfMissing(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::OK();
  }
  return Status::InvalidArgument(Errno("mkdir", path));
}

Result<std::string> ReadFileToString(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::InvalidArgument(Errno("open", path));
  std::string contents;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = Status::Internal(Errno("read", path));
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    contents.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return contents;
}

Status ReplaceFile(const std::string& tmp, const std::string& path,
                   std::string_view contents, bool* renamed,
                   AppendOnlyFile* file) {
  if (renamed != nullptr) *renamed = false;
  DD_RETURN_IF_ERROR(RemoveFileIfExists(tmp));
  auto opened = AppendOnlyFile::Open(tmp);
  if (!opened.ok()) return opened.status();
  AppendOnlyFile created = std::move(opened).value();
  Status status = created.Append(contents);
  if (status.ok()) status = created.Sync();
  if (status.ok() && Faultable(FileOp::kRename, path, [&] {
        return ::rename(tmp.c_str(), path.c_str());
      }) != 0) {
    status = Status::Internal(Errno("rename", path));
  }
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  created.path_ = path;
  if (renamed != nullptr) *renamed = true;
  if (file != nullptr) *file = std::move(created);
  return SyncParentDir(path);
}

Status RemoveFileIfExists(const std::string& path) {
  if (::unlink(path.c_str()) == 0 || errno == ENOENT) {
    return Status::OK();
  }
  return Status::Internal(Errno("unlink", path));
}

Result<FileLock> FileLock::Acquire(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return Status::InvalidArgument(Errno("open", path));
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    ::close(fd);
    return Status::ResourceExhausted("locked by another process: " + path);
  }
  return FileLock(path, fd);
}

FileLock::FileLock(FileLock&& other) noexcept
    : path_(std::move(other.path_)), fd_(other.fd_) {
  other.fd_ = -1;
}

FileLock& FileLock::operator=(FileLock&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);  // closing releases the flock
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

FileLock::~FileLock() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::string> FileLock::Read() const {
  std::string contents;
  char buf[4096];
  off_t off = 0;
  for (;;) {
    const ssize_t n = ::pread(fd_, buf, sizeof(buf), off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("pread", path_));
    }
    if (n == 0) break;
    contents.append(buf, static_cast<size_t>(n));
    off += n;
  }
  return contents;
}

Status FileLock::Write(std::string_view contents) {
  // In place on the flock'd fd — see the header comment for why a
  // tmp+rename replacement would break the lock.
  size_t written = 0;
  while (written < contents.size()) {
    const ssize_t n = Faultable(FileOp::kLockWrite, path_, [&] {
      return ::pwrite(fd_, contents.data() + written,
                      contents.size() - written, static_cast<off_t>(written));
    });
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("pwrite", path_));
    }
    written += static_cast<size_t>(n);
  }
  if (Faultable(FileOp::kTruncate, path_, [&] {
        return ::ftruncate(fd_, static_cast<off_t>(contents.size()));
      }) != 0) {
    return Status::Internal(Errno("ftruncate", path_));
  }
  if (CountedFsync(FileOp::kSync, path_, fd_) != 0) {
    return Status::Internal(Errno("fsync", path_));
  }
  return Status::OK();
}

Result<AppendOnlyFile> AppendOnlyFile::Open(const std::string& path) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) return Status::InvalidArgument(Errno("open", path));
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status = Status::Internal(Errno("fstat", path));
    ::close(fd);
    return status;
  }
  return AppendOnlyFile(path, fd, static_cast<uint64_t>(st.st_size));
}

AppendOnlyFile::AppendOnlyFile(AppendOnlyFile&& other) noexcept
    : path_(std::move(other.path_)), fd_(other.fd_), size_(other.size_) {
  other.fd_ = -1;
}

AppendOnlyFile& AppendOnlyFile::operator=(AppendOnlyFile&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    size_ = other.size_;
    other.fd_ = -1;
  }
  return *this;
}

AppendOnlyFile::~AppendOnlyFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status AppendOnlyFile::Append(std::string_view data) {
  DD_RETURN_IF_ERROR(WriteAll(fd_, data, path_));
  size_ += data.size();
  return Status::OK();
}

Status AppendOnlyFile::Sync() {
  if (CountedFsync(FileOp::kSync, path_, fd_) != 0) {
    return Status::Internal(Errno("fsync", path_));
  }
  return Status::OK();
}

Status AppendOnlyFile::Truncate(uint64_t size) {
  if (Faultable(FileOp::kTruncate, path_, [&] {
        return ::ftruncate(fd_, static_cast<off_t>(size));
      }) != 0) {
    return Status::Internal(Errno("ftruncate", path_));
  }
  size_ = size;
  return Status::OK();
}

}  // namespace dd
