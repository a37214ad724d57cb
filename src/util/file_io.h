// Small POSIX file-I/O layer with Status errors, serving the persistence
// code (timeseries/wal.cc, timeseries/snapshot.cc). Two durability idioms:
//
//  * AppendOnlyFile — an append cursor for the write-ahead log. Append()
//    pushes bytes to the OS immediately (surviving a process crash);
//    Sync() additionally fsyncs (surviving a machine crash).
//  * ReplaceFile — tmp-file + fsync + rename + directory fsync, so readers
//    observe either the old file or the complete new one, never a torn
//    write. Every file put in place goes through it: snapshots, a new or
//    reset WAL, the shard manifest and sketchd's port file.
//
// This file is the only code that writes, fsyncs, renames or truncates
// a file, so a test can fail any of those steps through FileFaultHook.

#ifndef DDSKETCH_UTIL_FILE_IO_H_
#define DDSKETCH_UTIL_FILE_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace dd {

/// Process-wide count of fsync(2) calls issued through this layer
/// (AppendOnlyFile::Sync, ReplaceFile, directory syncs). Monotonic and
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

class AppendOnlyFile;

/// Puts a file holding `contents` at `path`: writes `tmp` (replacing any
/// file there) and fsyncs it, renames it over `path`, then fsyncs the
/// directory so the rename survives power loss. A failure before the
/// rename removes `tmp` and leaves `path` as it was. The rename is the
/// point of no return: once it has landed, `*renamed` is set and `*file`
/// becomes the new file, open for appending (each when given), even if
/// the directory fsync after it fails. The caller can then no longer
/// undo the replacement, nor count on it surviving power loss.
Status ReplaceFile(const std::string& tmp, const std::string& path,
                   std::string_view contents, bool* renamed = nullptr,
                   AppendOnlyFile* file = nullptr);

/// Removes a file; OK when it does not exist.
Status RemoveFileIfExists(const std::string& path);

/// The steps of this layer a FileFaultHook can fail.
enum class FileOp {
  kWrite,      ///< a write of file data (AppendOnlyFile, ReplaceFile)
  kSync,       ///< an fsync of a file (its data, or the LOCK file)
  kSyncDir,    ///< the directory fsync that makes `path`'s name durable
  kRename,     ///< a rename onto `path`
  kTruncate,   ///< an ftruncate (AppendOnlyFile::Truncate, the LOCK file)
  kLockWrite,  ///< FileLock::Write's in-place pwrite
};

/// Test-only fault injection. While a hook is installed this layer calls
/// it before each FileOp, with the file's path; a nonzero return is an
/// errno the op then fails with, without reaching the kernel. Null
/// unless a test sets one, and no option or flag reaches it. The hook is
/// process-wide and may run on any thread, so a test removes it
/// (SetFileFaultHook(nullptr)) before it ends, and guards its own state.
using FileFaultHook = int (*)(FileOp op, const std::string& path);
void SetFileFaultHook(FileFaultHook hook);

/// An exclusive advisory lock on a lock file (flock), serializing access
/// to a data directory across processes. Released on destruction.
///
/// The lock file doubles as the durable home of the replication fencing
/// token (timeseries/durable_store.h): Read/Write operate on the flock'd
/// fd itself, in place (pwrite + ftruncate + fsync). They must NOT go
/// through ReplaceFile — its rename would swap a new inode under the
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
  FileLock(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}
  std::string path_;
  int fd_ = -1;
};

/// An append-only file handle (creates the file when absent). Writes are
/// unbuffered in user space: after Append() returns OK the bytes are in
/// the page cache and survive a process crash. Call Sync() to survive
/// power loss.
class AppendOnlyFile {
 public:
  static Result<AppendOnlyFile> Open(const std::string& path);

  /// A closed handle, for ReplaceFile to fill.
  AppendOnlyFile() = default;

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

  /// Bytes in the file (append offset).
  uint64_t size() const noexcept { return size_; }

  const std::string& path() const noexcept { return path_; }

 private:
  AppendOnlyFile(std::string path, int fd, uint64_t size)
      : path_(std::move(path)), fd_(fd), size_(size) {}

  friend Status ReplaceFile(const std::string&, const std::string&,
                            std::string_view, bool*, AppendOnlyFile*);

  std::string path_;
  int fd_ = -1;
  uint64_t size_ = 0;
};

}  // namespace dd

#endif  // DDSKETCH_UTIL_FILE_IO_H_
