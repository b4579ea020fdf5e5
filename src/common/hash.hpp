/**
 * @file
 * FNV-1a, the one content hash behind the memo-key fingerprints, the
 * snapshot checksums and the replay digests.
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace temp::common {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/// FNV-1a over a byte range, continuing from `hash`.
inline std::uint64_t
fnv1aBytes(const void *data, std::size_t size,
           std::uint64_t hash = kFnvOffset)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/// FNV-1a over the bytes of one trivially copyable value.
template <typename T>
std::uint64_t
fnv1aValue(std::uint64_t hash, const T &value)
{
    return fnv1aBytes(&value, sizeof(value), hash);
}

}  // namespace temp::common
