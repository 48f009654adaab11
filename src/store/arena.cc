#include "store/arena.h"

#include <cstring>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/byteio.h"

namespace crw {
namespace store {

namespace {

constexpr char kArenaMagic[8] = {'C', 'R', 'W', 'A', 'R', 'E', 'N', 'A'};
constexpr std::size_t kSuperblockBytes = 48;
constexpr std::size_t kSegmentEntryBytes = 24;
constexpr std::uint32_t kMaxSegments = 256;
constexpr std::uint32_t kMaxKeyLen = 4096;
/** Byte offset of headerChecksum inside the superblock. */
constexpr std::size_t kHeaderChecksumOff = 40;

std::size_t
alignUp(std::size_t n, std::size_t a)
{
    return (n + a - 1) / a * a;
}

bool
fail(std::string *error, const std::string &why)
{
    if (error)
        *error = why;
    return false;
}

} // namespace

std::uint64_t
hashArena64(const void *data, std::size_t n)
{
    // Eight bytes per step: xor-fold each word into the state, then
    // multiply-mix (the FNV idea at word granularity, with an extra
    // shift-xor so high bytes diffuse). The short tail goes through
    // plain FNV-1a seeded with the running state.
    const std::uint8_t *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t h = 0x9e3779b97f4a7c15ull ^ n;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t w;
        std::memcpy(&w, p + i, 8);
        h ^= w;
        h *= 0xff51afd7ed558ccdull;
        h ^= h >> 29;
    }
    return fnv1a64(p + i, n - i, h);
}

// ---------------------------------------------------------------- Mapping

Mapping::~Mapping()
{
    close();
}

Mapping::Mapping(Mapping &&other) noexcept
    : addr_(other.addr_),
      size_(other.size_),
      fd_(other.fd_),
      writable_(other.writable_),
      locked_(other.locked_)
{
    other.addr_ = nullptr;
    other.size_ = 0;
    other.fd_ = -1;
    other.writable_ = false;
    other.locked_ = false;
}

Mapping &
Mapping::operator=(Mapping &&other) noexcept
{
    if (this != &other) {
        close();
        addr_ = other.addr_;
        size_ = other.size_;
        fd_ = other.fd_;
        writable_ = other.writable_;
        locked_ = other.locked_;
        other.addr_ = nullptr;
        other.size_ = 0;
        other.fd_ = -1;
        other.writable_ = false;
        other.locked_ = false;
    }
    return *this;
}

void
Mapping::close()
{
    if (addr_) {
        ::munmap(addr_, size_);
        addr_ = nullptr;
    }
    if (fd_ >= 0) {
        ::close(fd_); // releases any flock
        fd_ = -1;
    }
    size_ = 0;
    writable_ = false;
    locked_ = false;
}

bool
Mapping::openFile(const std::string &path, std::size_t create_size,
                  bool writable, Mapping &out, std::string *error)
{
    out.close();
    const int flags =
        (writable ? O_RDWR : O_RDONLY) |
        (writable && create_size > 0 ? O_CREAT : 0);
    const int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0)
        return fail(error, "cannot open " + path);

    struct stat st;
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        return fail(error, "cannot stat " + path);
    }
    std::size_t size = static_cast<std::size_t>(st.st_size);
    if (writable && size < create_size) {
        if (::ftruncate(fd, static_cast<off_t>(create_size)) != 0) {
            ::close(fd);
            return fail(error, "cannot size " + path);
        }
        size = create_size;
    }
    if (size == 0) {
        ::close(fd);
        return fail(error, path + " is empty");
    }

    void *addr =
        ::mmap(nullptr, size, PROT_READ | (writable ? PROT_WRITE : 0),
               writable ? MAP_SHARED : MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
        ::close(fd);
        return fail(error, "cannot map " + path);
    }
    out.addr_ = addr;
    out.size_ = size;
    out.fd_ = fd;
    out.writable_ = writable;
    return true;
}

bool
Mapping::createAnonymous(std::size_t size, Mapping &out,
                         std::string *error)
{
    out.close();
    if (size == 0)
        return fail(error, "anonymous mapping needs a size");
    void *addr = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (addr == MAP_FAILED)
        return fail(error, "cannot map anonymous memory");
    out.addr_ = addr;
    out.size_ = size;
    out.fd_ = -1;
    out.writable_ = true;
    return true;
}

bool
Mapping::tryLockExclusive()
{
    if (fd_ < 0 || !writable_)
        return false;
    if (locked_)
        return true;
    if (::flock(fd_, LOCK_EX | LOCK_NB) != 0)
        return false;
    locked_ = true;
    return true;
}

// ----------------------------------------------------------- ArenaBuilder

void
ArenaBuilder::addSegment(const std::string &name, const void *data,
                         std::size_t bytes)
{
    Pending seg;
    seg.name = name.substr(0, 8);
    const std::uint8_t *p = static_cast<const std::uint8_t *>(data);
    seg.bytes.assign(p, p + bytes);
    segments_.push_back(std::move(seg));
}

void
ArenaBuilder::assemble(std::vector<std::uint8_t> &out) const
{
    const std::size_t header_raw = kSuperblockBytes +
                                   segments_.size() * kSegmentEntryBytes +
                                   appKey_.size();
    const std::size_t payload_off = alignUp(header_raw, kArenaAlign);

    // Lay the segments out first so the table can be written in one
    // pass: each one bump-allocated at the next aligned offset.
    std::vector<std::uint64_t> offsets;
    std::size_t cursor = payload_off;
    for (const Pending &seg : segments_) {
        offsets.push_back(cursor);
        cursor = alignUp(cursor + seg.bytes.size(), kArenaAlign);
    }
    const std::size_t file_bytes = cursor;

    out.assign(file_bytes, 0);
    auto put32 = [&out](std::size_t off, std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            out[off + static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(v >> (8 * i));
    };
    auto put64 = [&out](std::size_t off, std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            out[off + static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(v >> (8 * i));
    };

    std::memcpy(out.data(), kArenaMagic, 8);
    put32(8, kArenaFormatVersion);
    put32(12, appVersion_);
    put64(16, file_bytes);
    put32(32, static_cast<std::uint32_t>(segments_.size()));
    put32(36, static_cast<std::uint32_t>(appKey_.size()));

    std::size_t entry = kSuperblockBytes;
    for (std::size_t i = 0; i < segments_.size(); ++i) {
        std::memcpy(out.data() + entry, segments_[i].name.data(),
                    segments_[i].name.size());
        put64(entry + 8, offsets[i]);
        put64(entry + 16, segments_[i].bytes.size());
        entry += kSegmentEntryBytes;
        // An empty segment's buffer may be null, and memcpy from null
        // is undefined even for zero bytes.
        if (!segments_[i].bytes.empty())
            std::memcpy(out.data() + offsets[i],
                        segments_[i].bytes.data(),
                        segments_[i].bytes.size());
    }
    std::memcpy(out.data() + entry, appKey_.data(), appKey_.size());

    put64(24, hashArena64(out.data() + payload_off,
                          file_bytes - payload_off));
    // Header checksum last, over the padded header with its own field
    // still zero.
    put64(kHeaderChecksumOff,
          fnv1a64(out.data(), payload_off));
}

bool
ArenaBuilder::write(const std::string &path, std::string *error) const
{
    std::vector<std::uint8_t> image;
    assemble(image);
    return writeFileAtomic(image, path, error);
}

// -------------------------------------------------------------- ArenaView

bool
ArenaView::attachMapping(Mapping mapping,
                         std::uint32_t expected_app_version,
                         const std::string &expected_key,
                         ArenaView &out, std::string *error)
{
    const std::uint8_t *base =
        static_cast<const std::uint8_t *>(mapping.data());
    const std::size_t size = mapping.size();
    if (!mapping.valid() || size < kSuperblockBytes)
        return fail(error, "arena: file shorter than a superblock");
    if (std::memcmp(base, kArenaMagic, 8) != 0)
        return fail(error, "arena: bad magic");

    auto get32 = [base](std::size_t off) {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     base[off + static_cast<std::size_t>(i)])
                 << (8 * i);
        return v;
    };
    auto get64 = [base](std::size_t off) {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     base[off + static_cast<std::size_t>(i)])
                 << (8 * i);
        return v;
    };

    if (get32(8) != kArenaFormatVersion)
        return fail(error, "arena: unsupported arena version " +
                               std::to_string(get32(8)));
    const std::uint32_t app_version = get32(12);
    if (app_version != expected_app_version)
        return fail(error, "arena: app version " +
                               std::to_string(app_version) +
                               " (expected " +
                               std::to_string(expected_app_version) +
                               ")");
    const std::uint64_t file_bytes = get64(16);
    if (file_bytes != size)
        return fail(error,
                    "arena: truncated (header claims " +
                        std::to_string(file_bytes) + " bytes, file has " +
                        std::to_string(size) + ")");
    const std::uint32_t count = get32(32);
    const std::uint32_t key_len = get32(36);
    if (count > kMaxSegments || key_len > kMaxKeyLen)
        return fail(error, "arena: implausible header counts");
    const std::size_t header_raw =
        kSuperblockBytes + count * kSegmentEntryBytes + key_len;
    const std::size_t payload_off = alignUp(header_raw, kArenaAlign);
    if (payload_off > size)
        return fail(error, "arena: header overruns the file");

    // Header checksum: hash the header image with the stored checksum
    // field zeroed out (exactly how the builder computed it).
    {
        std::vector<std::uint8_t> header(base, base + payload_off);
        std::memset(header.data() + kHeaderChecksumOff, 0, 8);
        if (fnv1a64(header.data(), header.size()) !=
            get64(kHeaderChecksumOff))
            return fail(error, "arena: header checksum mismatch");
    }

    std::vector<ArenaSegmentInfo> segments;
    std::size_t entry = kSuperblockBytes;
    for (std::uint32_t i = 0; i < count; ++i) {
        ArenaSegmentInfo info;
        const char *name =
            reinterpret_cast<const char *>(base + entry);
        info.name.assign(name, strnlen(name, 8));
        info.offset = get64(entry + 8);
        info.bytes = get64(entry + 16);
        if (info.offset < payload_off || info.offset > size ||
            info.bytes > size - info.offset)
            return fail(error, "arena: segment \"" + info.name +
                                   "\" out of bounds");
        segments.push_back(std::move(info));
        entry += kSegmentEntryBytes;
    }
    const std::string key(
        reinterpret_cast<const char *>(base + entry), key_len);
    if (key != expected_key)
        return fail(error, "arena: identity key mismatch (file is \"" +
                               key + "\")");

    out.mapping_ = std::move(mapping);
    out.appVersion_ = app_version;
    out.appKey_ = key;
    out.segments_ = std::move(segments);
    out.payloadOffset_ = payload_off;
    out.payloadChecksum_ = get64(24);
    return true;
}

bool
ArenaView::attach(const std::string &path,
                  std::uint32_t expected_app_version,
                  const std::string &expected_key, ArenaView &out,
                  std::string *error)
{
    Mapping mapping;
    if (!Mapping::openFile(path, 0, /*writable=*/false, mapping, error))
        return false;
    return attachMapping(std::move(mapping), expected_app_version,
                         expected_key, out, error);
}

const void *
ArenaView::segment(const std::string &name, std::uint64_t *bytes) const
{
    for (const ArenaSegmentInfo &info : segments_) {
        if (info.name == name) {
            if (bytes)
                *bytes = info.bytes;
            return static_cast<const std::uint8_t *>(mapping_.data()) +
                   info.offset;
        }
    }
    if (bytes)
        *bytes = 0;
    return nullptr;
}

bool
ArenaView::verifyPayload() const
{
    if (!valid())
        return false;
    const std::uint8_t *base =
        static_cast<const std::uint8_t *>(mapping_.data());
    return hashArena64(base + payloadOffset_,
                       mapping_.size() - payloadOffset_) ==
           payloadChecksum_;
}

} // namespace store
} // namespace crw
