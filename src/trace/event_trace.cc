#include "trace/event_trace.h"

#include <cstring>

#include "common/byteio.h"
#include "common/logging.h"

namespace crw {
namespace {

// Tag byte: kind in the high nibble, small operand in the low nibble.
// Operand 0..14 is stored inline; 15 means an LEB128 varint follows.
constexpr std::uint8_t kInlineMax = 14;
constexpr std::uint8_t kSpill = 15;

constexpr char kMagic[8] = {'C', 'R', 'W', 'T', 'R', 'A', 'C', 'E'};

void
appendVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

// The exact byte sequence saveTraceFile() checksums and writes between
// the version word and the trailing checksum; traceChecksum() hashes
// the same bytes so an in-memory trace and its file agree on identity.
void
encodeTracePayload(const EventTrace &trace, ByteWriter &payload)
{
    payload.str(trace.key);
    payload.u64(trace.seed);
    payload.u64(trace.corpusBytes);
    payload.u64(trace.misspelled);
    payload.u64(trace.wordsFromDelatex);
    payload.u32(static_cast<std::uint32_t>(trace.streams.size()));
    for (const TraceStreamInfo &s : trace.streams) {
        payload.str(s.name);
        payload.u32(s.capacity);
        payload.u32(s.writers);
    }
    payload.u32(static_cast<std::uint32_t>(trace.threads.size()));
    for (const TraceThreadInfo &t : trace.threads) {
        payload.str(t.name);
        payload.u32(t.priority); // format v2
        payload.blob(t.code);
    }
}

} // namespace

std::uint64_t
EventTrace::eventCount() const
{
    std::uint64_t n = 0;
    for (const TraceThreadInfo &t : threads) {
        TraceCursor cur(t.code);
        std::uint64_t operand;
        while (!cur.atEnd()) {
            cur.peek(operand);
            cur.advance();
            ++n;
        }
    }
    return n;
}

TraceOp
TraceCursor::peek(std::uint64_t &operand) const
{
    crw_assert(pc_ != end_);
    const std::uint8_t tag = *pc_;
    const TraceOp op = static_cast<TraceOp>(tag >> 4);
    const std::uint8_t low = tag & 0x0F;
    const std::uint8_t *p = pc_ + 1;
    if (low != kSpill) {
        operand = low;
    } else {
        std::uint64_t v = 0;
        int shift = 0;
        while (true) {
            crw_assert(p != end_);
            const std::uint8_t b = *p++;
            v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
            if (!(b & 0x80))
                break;
            shift += 7;
        }
        operand = v;
    }
    next_ = p;
    return op;
}

void
TraceCursor::advance()
{
    crw_assert(next_ != nullptr);
    pc_ = next_;
    next_ = nullptr;
}

TraceRecorder::TraceRecorder(std::string key, std::uint64_t seed,
                             std::uint64_t corpus_bytes)
{
    trace_.key = std::move(key);
    trace_.seed = seed;
    trace_.corpusBytes = corpus_bytes;
}

std::vector<std::uint8_t> &
TraceRecorder::code(ThreadId tid)
{
    crw_assert(tid >= 0 &&
               tid < static_cast<ThreadId>(trace_.threads.size()));
    return trace_.threads[static_cast<std::size_t>(tid)].code;
}

void
TraceRecorder::onThreadSpawn(ThreadId tid, const std::string &name,
                             std::uint8_t priority)
{
    if (tid != static_cast<ThreadId>(trace_.threads.size()))
        crw_fatal << "trace capture: thread ids must be dense spawn "
                     "order, got "
                  << tid;
    trace_.threads.push_back(TraceThreadInfo{name, priority, {}});
    pendingCharge_.push_back(0);
}

int
TraceRecorder::onStreamCreate(const std::string &name,
                              std::size_t capacity, int num_writers)
{
    TraceStreamInfo info;
    info.name = name;
    info.capacity = static_cast<std::uint32_t>(capacity);
    info.writers = static_cast<std::uint32_t>(num_writers);
    trace_.streams.push_back(std::move(info));
    return static_cast<int>(trace_.streams.size()) - 1;
}

void
TraceRecorder::emit(ThreadId tid, TraceOp op, std::uint64_t operand)
{
    std::vector<std::uint8_t> &out = code(tid);
    const std::uint8_t high = static_cast<std::uint8_t>(op) << 4;
    if (operand <= kInlineMax) {
        out.push_back(high | static_cast<std::uint8_t>(operand));
    } else {
        out.push_back(high | kSpill);
        appendVarint(out, operand);
    }
}

void
TraceRecorder::flushCharge(ThreadId tid)
{
    std::uint64_t &pending =
        pendingCharge_[static_cast<std::size_t>(tid)];
    if (pending != 0) {
        emit(tid, TraceOp::Charge, pending);
        pending = 0;
    }
}

void
TraceRecorder::recordSave(ThreadId tid)
{
    flushCharge(tid);
    emit(tid, TraceOp::Save, 0);
}

void
TraceRecorder::recordRestore(ThreadId tid)
{
    flushCharge(tid);
    emit(tid, TraceOp::Restore, 0);
}

void
TraceRecorder::recordCharge(ThreadId tid, Cycles cycles)
{
    // Coalesce with an immediately preceding charge: the engine's
    // clock and cycle counters cannot tell two back-to-back charges
    // from their sum.
    pendingCharge_[static_cast<std::size_t>(tid)] +=
        static_cast<std::uint64_t>(cycles);
}

void
TraceRecorder::recordPut(ThreadId tid, int stream_id)
{
    flushCharge(tid);
    emit(tid, TraceOp::Put, static_cast<std::uint64_t>(stream_id));
}

void
TraceRecorder::recordGet(ThreadId tid, int stream_id)
{
    flushCharge(tid);
    emit(tid, TraceOp::Get, static_cast<std::uint64_t>(stream_id));
}

void
TraceRecorder::recordClose(ThreadId tid, int stream_id)
{
    flushCharge(tid);
    emit(tid, TraceOp::Close, static_cast<std::uint64_t>(stream_id));
}

void
TraceRecorder::recordExit(ThreadId tid)
{
    flushCharge(tid);
    emit(tid, TraceOp::Exit, 0);
}

EventTrace
TraceRecorder::take(std::uint64_t misspelled,
                    std::uint64_t words_from_delatex)
{
    for (ThreadId tid = 0;
         tid < static_cast<ThreadId>(trace_.threads.size()); ++tid)
        flushCharge(tid);
    trace_.misspelled = misspelled;
    trace_.wordsFromDelatex = words_from_delatex;
    return std::move(trace_);
}

std::uint64_t
traceChecksum(const EventTrace &trace)
{
    ByteWriter payload;
    encodeTracePayload(trace, payload);
    return fnv1a64(payload.bytes.data(), payload.bytes.size());
}

bool
saveTraceFile(const EventTrace &trace, const std::string &path,
              std::string *error)
{
    ByteWriter payload;
    encodeTracePayload(trace, payload);

    ByteWriter file{{kMagic, kMagic + 8}};
    file.u32(kTraceFormatVersion);
    file.bytes.insert(file.bytes.end(), payload.bytes.begin(),
                      payload.bytes.end());
    file.u64(fnv1a64(payload.bytes.data(), payload.bytes.size()));

    return writeFileAtomic(file.bytes, path, error);
}

bool
validateTraceCode(const std::vector<std::uint8_t> &code,
                  std::size_t num_streams, std::string *error)
{
    auto fail = [error](const std::string &why) {
        if (error)
            *error = why;
        return false;
    };

    const std::uint8_t *p = code.data();
    const std::uint8_t *const end = p + code.size();
    while (p != end) {
        const std::size_t at =
            static_cast<std::size_t>(p - code.data());
        const std::uint8_t tag = *p++;
        const std::uint8_t high = tag >> 4;
        if (high > static_cast<std::uint8_t>(TraceOp::Exit))
            return fail("unknown event op " + std::to_string(high) +
                        " at offset " + std::to_string(at));
        const TraceOp op = static_cast<TraceOp>(high);
        std::uint64_t operand = tag & 0x0F;
        if (operand == kSpill) {
            std::uint64_t v = 0;
            int shift = 0;
            while (true) {
                if (p == end)
                    return fail("truncated varint at offset " +
                                std::to_string(at));
                if (shift > 63)
                    return fail("oversized varint at offset " +
                                std::to_string(at));
                const std::uint8_t b = *p++;
                v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
                if (!(b & 0x80))
                    break;
                shift += 7;
            }
            operand = v;
        }
        if ((op == TraceOp::Put || op == TraceOp::Get ||
             op == TraceOp::Close) &&
            operand >= num_streams)
            return fail("stream id " + std::to_string(operand) +
                        " out of range at offset " +
                        std::to_string(at));
    }
    return true;
}

bool
loadTraceFile(const std::string &path, EventTrace &out,
              std::string *error)
{
    auto fail = [error](const std::string &why) {
        if (error)
            *error = why;
        return false;
    };

    std::vector<std::uint8_t> bytes;
    std::string io_err;
    if (!readFileBytes(path, bytes, &io_err))
        return fail(io_err);

    // 8 magic + 4 version + 8 trailing checksum.
    if (bytes.size() < 20)
        return fail("truncated header");
    if (std::memcmp(bytes.data(), kMagic, 8) != 0)
        return fail("bad magic (not a crw trace)");

    ByteReader header{bytes.data() + 8, bytes.data() + bytes.size()};
    const std::uint32_t version = header.u32();
    if (version != kTraceFormatVersion)
        return fail("unsupported trace version " +
                    std::to_string(version));

    const std::uint8_t *payload = bytes.data() + 12;
    const std::size_t payload_size = bytes.size() - 20;
    ByteReader csum{bytes.data() + bytes.size() - 8,
                bytes.data() + bytes.size()};
    if (fnv1a64(payload, payload_size) != csum.u64())
        return fail("checksum mismatch (corrupted trace)");

    ByteReader r{payload, payload + payload_size};
    EventTrace t;
    t.key = r.str();
    t.seed = r.u64();
    t.corpusBytes = r.u64();
    t.misspelled = r.u64();
    t.wordsFromDelatex = r.u64();
    const std::uint32_t num_streams = r.u32();
    for (std::uint32_t i = 0; r.ok && i < num_streams; ++i) {
        TraceStreamInfo s;
        s.name = r.str();
        s.capacity = r.u32();
        s.writers = r.u32();
        t.streams.push_back(std::move(s));
    }
    const std::uint32_t num_threads = r.u32();
    for (std::uint32_t i = 0; r.ok && i < num_threads; ++i) {
        TraceThreadInfo th;
        th.name = r.str();
        th.priority = static_cast<std::uint8_t>(r.u32());
        th.code = r.blob();
        t.threads.push_back(std::move(th));
    }
    if (!r.ok || r.p != r.end)
        return fail("malformed payload");
    // The checksum catches accidental corruption, but a trace could
    // still carry scripts the check-free TraceCursor must never see
    // (e.g. written by a buggy or adversarial producer).
    for (std::size_t i = 0; i < t.threads.size(); ++i) {
        std::string why;
        if (!validateTraceCode(t.threads[i].code, t.streams.size(),
                               &why))
            return fail("invalid event script in thread " +
                        std::to_string(i) + " (" + t.threads[i].name +
                        "): " + why);
    }
    out = std::move(t);
    return true;
}

} // namespace crw
