#include "ckpt/ckpt.hpp"

#include <cstdio>
#include <cstring>
#include <string>

namespace mbcosim::ckpt {
namespace {

std::string code_message(const char* code, const std::string& detail) {
  return std::string(code) + " " + detail;
}

constexpr u64 kFnvPrime = 0x100000001b3ull;
/// Bytes per zero-run step of fnv1a, and the prime to that power: a zero
/// byte leaves the xor a no-op, so a block of them only multiplies.
constexpr std::size_t kZeroBlock = 32;
constexpr u64 kFnvPrimeBlock = [] {
  u64 power = 1;
  for (std::size_t i = 0; i < kZeroBlock; ++i) power *= kFnvPrime;
  return power;
}();

/// The image header in front of a payload of `size` bytes.
Writer header_for(u64 size, u64 checksum) {
  Writer header;
  header.write_bytes(kMagic, sizeof(kMagic));
  header.write_u32(kFormatVersion);
  header.write_u64(size);
  header.write_u64(checksum);
  return header;
}

}  // namespace

u64 fnv1a(const void* data, std::size_t size, u64 hash) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + kZeroBlock <= size; i += kZeroBlock) {
    u64 words[kZeroBlock / 8];
    std::memcpy(words, bytes + i, kZeroBlock);
    u64 any = 0;
    for (const u64 word : words) any |= word;
    if (any == 0) {
      hash *= kFnvPrimeBlock;
      continue;
    }
    for (std::size_t j = i; j < i + kZeroBlock; ++j) {
      hash ^= bytes[j];
      hash *= kFnvPrime;
    }
  }
  for (; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

std::vector<unsigned char> seal(std::vector<unsigned char> payload) {
  const Writer header =
      header_for(payload.size(), fnv1a(payload.data(), payload.size()));
  const std::size_t size = payload.size();
  payload.resize(kHeaderBytes + size);
  std::memmove(payload.data() + kHeaderBytes, payload.data(), size);
  std::memcpy(payload.data(), header.buffer().data(), kHeaderBytes);
  return payload;
}

Expected<std::vector<unsigned char>> unseal(
    const std::vector<unsigned char>& image) {
  using Result = Expected<std::vector<unsigned char>>;
  if (image.size() < kHeaderBytes) {
    return Result::failure(code_message(
        "[ckpt-truncated]",
        "image of " + std::to_string(image.size()) +
            " bytes is shorter than the " + std::to_string(kHeaderBytes) +
            "-byte header"));
  }
  Reader header(image.data(), kHeaderBytes);
  unsigned char magic[4] = {};
  header.read_bytes(magic, sizeof(magic));
  if (magic[0] != kMagic[0] || magic[1] != kMagic[1] ||
      magic[2] != kMagic[2] || magic[3] != kMagic[3]) {
    return Result::failure(
        code_message("[ckpt-magic]", "not a checkpoint image (bad magic)"));
  }
  const u32 version = header.read_u32();
  if (version != kFormatVersion) {
    return Result::failure(code_message(
        "[ckpt-version]", "image format version " + std::to_string(version) +
                              ", this build reads version " +
                              std::to_string(kFormatVersion)));
  }
  const u64 payload_size = header.read_u64();
  const u64 checksum = header.read_u64();
  if (image.size() - kHeaderBytes != payload_size) {
    return Result::failure(code_message(
        "[ckpt-truncated]",
        "header claims a " + std::to_string(payload_size) +
            "-byte payload but the image carries " +
            std::to_string(image.size() - kHeaderBytes) + " bytes"));
  }
  const u64 actual =
      fnv1a(image.data() + kHeaderBytes, static_cast<std::size_t>(payload_size));
  if (actual != checksum) {
    return Result::failure(code_message(
        "[ckpt-corrupt]", "payload checksum mismatch (image is damaged)"));
  }
  return std::vector<unsigned char>(image.begin() + kHeaderBytes, image.end());
}

Status write_file(const std::string& path,
                  const std::vector<unsigned char>& image) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::failure(
        code_message("[ckpt-io]", "cannot open '" + path + "' for writing"));
  }
  const std::size_t written =
      image.empty() ? 0 : std::fwrite(image.data(), 1, image.size(), file);
  const int close_result = std::fclose(file);
  if (written != image.size() || close_result != 0) {
    return Status::failure(
        code_message("[ckpt-io]", "short write to '" + path + "'"));
  }
  return {};
}

Status write_sealed(
    const std::string& path,
    std::initializer_list<std::span<const unsigned char>> parts) {
  u64 size = 0;
  u64 checksum = kFnvBasis;
  for (const std::span<const unsigned char> part : parts) {
    size += part.size();
    checksum = fnv1a(part.data(), part.size(), checksum);
  }
  const Writer header = header_for(size, checksum);
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::failure(
        code_message("[ckpt-io]", "cannot open '" + path + "' for writing"));
  }
  bool written = std::fwrite(header.buffer().data(), 1, kHeaderBytes, file) ==
                 kHeaderBytes;
  for (const std::span<const unsigned char> part : parts) {
    written = written && (part.empty() || std::fwrite(part.data(), 1,
                                                      part.size(), file) ==
                                              part.size());
  }
  const int close_result = std::fclose(file);
  if (!written || close_result != 0) {
    return Status::failure(
        code_message("[ckpt-io]", "short write to '" + path + "'"));
  }
  return {};
}

Expected<std::vector<unsigned char>> read_file(const std::string& path) {
  using Result = Expected<std::vector<unsigned char>>;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Result::failure(
        code_message("[ckpt-io]", "cannot open '" + path + "' for reading"));
  }
  std::vector<unsigned char> image;
  unsigned char chunk[4096];
  for (;;) {
    const std::size_t got = std::fread(chunk, 1, sizeof(chunk), file);
    image.insert(image.end(), chunk, chunk + got);
    if (got < sizeof(chunk)) break;
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) {
    return Result::failure(
        code_message("[ckpt-io]", "read error on '" + path + "'"));
  }
  return image;
}

Expected<std::vector<unsigned char>> read_sealed(const std::string& path) {
  Expected<std::vector<unsigned char>> image = read_file(path);
  if (!image) return image;
  return unseal(image.value());
}

}  // namespace mbcosim::ckpt
