/**
 * @file
 * Flat little-endian byte-buffer writer/reader plus the FNV-1a hash —
 * the serialization substrate of the versioned binary formats: the
 * CRWTRACE file (trace/event_trace.cc), framed as magic, u32 version,
 * payload, trailing u64 FNV-1a checksum of the payload, and the
 * result-record payload (trace/run_metrics.cc) that the arena result
 * store frames itself.
 *
 * The Reader never throws or asserts on malformed input: a short or
 * truncated buffer flips ok to false and every subsequent read
 * returns a zero value, so callers validate once at the end.
 */

#ifndef CRW_COMMON_BYTEIO_H_
#define CRW_COMMON_BYTEIO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace crw {

/** 64-bit FNV-1a over a byte range. */
inline std::uint64_t
fnv1a64(const std::uint8_t *data, std::size_t n,
        std::uint64_t seed = 0xcbf29ce484222325ull)
{
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Convenience overload for strings (canonical keys, digests). */
inline std::uint64_t
fnv1a64(const std::string &s, std::uint64_t seed = 0xcbf29ce484222325ull)
{
    return fnv1a64(reinterpret_cast<const std::uint8_t *>(s.data()),
                   s.size(), seed);
}

/**
 * Append-only little-endian encoder. Every write goes through
 * append() (one resize + memcpy): the byte-at-a-time push_back and
 * iterator-range insert it replaces tripped GCC 12's -Wrestrict /
 * -Wstringop-overflow false positives once inlined into Release
 * builds.
 */
struct ByteWriter
{
    std::vector<std::uint8_t> bytes;

    void
    append(const void *data, std::size_t n)
    {
        if (n == 0)
            return;
        const std::size_t at = bytes.size();
        bytes.resize(at + n);
        std::memcpy(bytes.data() + at, data, n);
    }

    void
    u32(std::uint32_t v)
    {
        std::uint8_t b[4];
        for (int i = 0; i < 4; ++i)
            b[i] = static_cast<std::uint8_t>(v >> (8 * i));
        append(b, sizeof b);
    }

    void
    u64(std::uint64_t v)
    {
        std::uint8_t b[8];
        for (int i = 0; i < 8; ++i)
            b[i] = static_cast<std::uint8_t>(v >> (8 * i));
        append(b, sizeof b);
    }

    /** Doubles travel as their exact IEEE-754 bit pattern. */
    void
    f64(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof bits == sizeof v);
        __builtin_memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        append(s.data(), s.size());
    }

    void
    blob(const std::vector<std::uint8_t> &b)
    {
        u64(b.size());
        append(b.data(), b.size());
    }
};

/** Bounds-checked little-endian decoder (see file comment). */
struct ByteReader
{
    const std::uint8_t *p;
    const std::uint8_t *end;
    bool ok = true;

    bool
    need(std::size_t n)
    {
        if (static_cast<std::size_t>(end - p) < n) {
            ok = false;
            return false;
        }
        return true;
    }

    std::uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(*p++) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(*p++) << (8 * i);
        return v;
    }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v;
        __builtin_memcpy(&v, &bits, sizeof v);
        return v;
    }

    std::string
    str()
    {
        const std::uint32_t n = u32();
        if (!need(n))
            return {};
        std::string s(reinterpret_cast<const char *>(p), n);
        p += n;
        return s;
    }

    std::vector<std::uint8_t>
    blob()
    {
        const std::uint64_t n = u64();
        if (!need(n))
            return {};
        std::vector<std::uint8_t> b(p, p + n);
        p += n;
        return b;
    }
};

/**
 * Write @p bytes to @p path atomically (temp file + rename) so a
 * crashed writer can never leave a torn file behind for a later
 * reader to trip over.
 */
bool writeFileAtomic(const std::vector<std::uint8_t> &bytes,
                     const std::string &path,
                     std::string *error = nullptr);

/** Slurp @p path. False (and *error) if it cannot be opened. */
bool readFileBytes(const std::string &path,
                   std::vector<std::uint8_t> &out,
                   std::string *error = nullptr);

} // namespace crw

#endif // CRW_COMMON_BYTEIO_H_
