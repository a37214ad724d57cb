#include "util/dir_layout.h"

#include <cstdlib>

#include "util/file_io.h"

namespace dd {

std::string ShardSubdir(const std::string& data_dir, size_t shard) {
  return data_dir + "/shard-" + std::to_string(shard);
}

std::string ShardManifestPath(const std::string& data_dir) {
  return data_dir + "/SHARDS";
}

Result<size_t> ReadShardManifest(const std::string& data_dir) {
  const std::string path = ShardManifestPath(data_dir);
  if (!FileExists(path)) return size_t{0};
  auto contents = ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  const std::string& text = contents.value();
  constexpr std::string_view kPrefix = "shards=";
  if (text.compare(0, kPrefix.size(), kPrefix) != 0) {
    return Status::Corruption("shard manifest is malformed: " + path);
  }
  char* end = nullptr;
  const char* digits = text.c_str() + kPrefix.size();
  const unsigned long long n = std::strtoull(digits, &end, 10);
  // Only a trailing newline may follow the count.
  if (end == digits || (*end != '\0' && (*end != '\n' || end[1] != '\0'))) {
    return Status::Corruption("shard manifest is malformed: " + path);
  }
  if (n < 1 || n > kMaxShards) {
    return Status::Corruption("shard manifest count out of range: " + path);
  }
  return static_cast<size_t>(n);
}

Status WriteShardManifest(const std::string& data_dir, size_t shards) {
  if (shards < 1 || shards > kMaxShards) {
    return Status::InvalidArgument("shard count out of range");
  }
  const std::string path = ShardManifestPath(data_dir);
  return ReplaceFile(path + ".tmp", path,
                     "shards=" + std::to_string(shards) + "\n");
}

uint64_t ShardHash(std::string_view series) noexcept {
  // FNV-1a, 64-bit; offset basis and prime from the FNV reference.
  uint64_t h = 14695981039346656037ull;
  for (const char c : series) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace dd
