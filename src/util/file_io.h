// Small POSIX file-I/O layer with Status errors, serving the persistence
// code (timeseries/wal.cc, timeseries/snapshot.cc). Two durability idioms:
//
//  * AppendOnlyFile — an append cursor for the write-ahead log. Append()
//    pushes bytes to the OS immediately (surviving a process crash);
//    Sync() additionally fsyncs (surviving a machine crash).
//  * WriteFileAtomic — tmp-file + fsync + rename, so readers observe either
//    the old file or the complete new one, never a torn write. Used for
//    snapshots.

#ifndef DDSKETCH_UTIL_FILE_IO_H_
#define DDSKETCH_UTIL_FILE_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace dd {

/// Process-wide count of fsync(2) calls issued through this layer
/// (AppendOnlyFile::Sync, WriteFileAtomic, directory syncs). Monotonic and
/// thread-safe. Lets tests assert batching behavior (group commit must
/// turn N record flushes into one) and tools report flush rates.
uint64_t TotalFsyncCount();

/// True iff `path` names an existing file system entry.
bool FileExists(const std::string& path);

/// Creates `path` as a directory if missing (one level; parents must
/// exist). OK when the directory already exists.
Status CreateDirIfMissing(const std::string& path);

/// Reads an entire file. Fails with InvalidArgument when the file cannot
/// be opened.
Result<std::string> ReadFileToString(const std::string& path);

/// Atomically replaces `path` with `contents`: writes `path + ".tmp"`,
/// fsyncs it, renames it over `path`, and fsyncs the parent directory so
/// the rename itself is durable.
Status WriteFileAtomic(const std::string& path, std::string_view contents);

/// Removes a file; OK when it does not exist.
Status RemoveFileIfExists(const std::string& path);

/// fsyncs the directory that holds `path`, so that a file created or
/// renamed there survives power loss.
Status SyncParentDir(const std::string& path);

/// An exclusive advisory lock on a lock file (flock), serializing access
/// to a data directory across processes. Released on destruction.
///
/// The lock file doubles as the durable home of the replication fencing
/// token (timeseries/durable_store.h): Read/Write operate on the flock'd
/// fd itself, in place (pwrite + ftruncate + fsync). They must NOT go
/// through WriteFileAtomic — its rename would swap a new inode under the
/// path while the flock stays on the old one, so the next Acquire would
/// lock a different file than the one this process holds.
class FileLock {
 public:
  /// Creates/opens `path` and takes the lock without blocking. Fails
  /// with ResourceExhausted when another process holds it.
  static Result<FileLock> Acquire(const std::string& path);

  FileLock(FileLock&& other) noexcept;
  FileLock& operator=(FileLock&& other) noexcept;
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;
  ~FileLock();

  /// Reads the whole lock-file contents (empty for a fresh lock file).
  Result<std::string> Read() const;

  /// Replaces the lock-file contents in place and fsyncs, keeping the
  /// flock'd inode. Durable when this returns OK.
  Status Write(std::string_view contents);

 private:
  explicit FileLock(int fd) : fd_(fd) {}
  int fd_ = -1;
};

/// An append-only file handle (creates the file when absent). Writes are
/// unbuffered in user space: after Append() returns OK the bytes are in
/// the page cache and survive a process crash. Call Sync() to survive
/// power loss.
class AppendOnlyFile {
 public:
  static Result<AppendOnlyFile> Open(const std::string& path);

  AppendOnlyFile(AppendOnlyFile&& other) noexcept;
  AppendOnlyFile& operator=(AppendOnlyFile&& other) noexcept;
  AppendOnlyFile(const AppendOnlyFile&) = delete;
  AppendOnlyFile& operator=(const AppendOnlyFile&) = delete;
  ~AppendOnlyFile();

  /// Appends all of `data`; the offset advances only on success.
  Status Append(std::string_view data);

  /// fsync — flush device caches so appended bytes survive power loss.
  Status Sync();

  /// Truncates the file to `size` and repositions the append cursor. Used
  /// to cut a torn tail or a failed append off the WAL.
  Status Truncate(uint64_t size);

  /// Renames the file to `path`, replacing any file there; the handle
  /// keeps its descriptor and offset and from then on names `path`. The
  /// rename is durable only once the caller has run SyncParentDir.
  Status RenameTo(const std::string& path);

  /// Bytes in the file (append offset).
  uint64_t size() const noexcept { return size_; }

  const std::string& path() const noexcept { return path_; }

 private:
  AppendOnlyFile(std::string path, int fd, uint64_t size)
      : path_(std::move(path)), fd_(fd), size_(size) {}

  std::string path_;
  int fd_ = -1;
  uint64_t size_ = 0;
};

}  // namespace dd

#endif  // DDSKETCH_UTIL_FILE_IO_H_
