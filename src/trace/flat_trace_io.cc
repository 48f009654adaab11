#include "trace/flat_trace_io.h"

#include <cstdio>
#include <cstring>

#include "store/arena.h"

namespace crw {

namespace {

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

bool
fail(std::string *error, const std::string &why)
{
    if (error)
        *error = why;
    return false;
}

} // namespace

std::string
flatTraceKey(std::uint64_t trace_checksum)
{
    return "flat|trace=" + hex16(trace_checksum) + "|v" +
           std::to_string(kFlatTraceFormatVersion);
}

std::string
flatTraceFileName(std::uint64_t trace_checksum)
{
    return "c" + hex16(trace_checksum) + ".flat";
}

bool
saveFlatTrace(const FlatTrace &flat, std::uint64_t trace_checksum,
              const std::string &path, std::string *error)
{
    store::ArenaBuilder builder(kFlatTraceFormatVersion,
                                flatTraceKey(trace_checksum));
    builder.addSegment("ops", flat.ops, flat.events);
    builder.addSegment("operands", flat.operands,
                       flat.events * sizeof(std::uint64_t));
    std::vector<std::uint32_t> spans;
    spans.reserve(flat.threads.size() * 2);
    for (const FlatTrace::Span &s : flat.threads) {
        spans.push_back(s.begin);
        spans.push_back(s.end);
    }
    builder.addSegment("spans", spans.data(),
                       spans.size() * sizeof(std::uint32_t));
    return builder.write(path, error);
}

bool
loadFlatTrace(const std::string &path, std::uint64_t trace_checksum,
              FlatTrace &out, std::string *error)
{
    store::ArenaView view;
    if (!store::ArenaView::attach(path, kFlatTraceFormatVersion,
                                  flatTraceKey(trace_checksum), view,
                                  error))
        return false;
    // The replay hot loop runs check-free over these bytes, so this
    // is the one place the payload hash is actually verified.
    if (!view.verifyPayload())
        return fail(error, "flat trace: payload checksum mismatch");

    std::uint64_t ops_bytes = 0, operand_bytes = 0, span_bytes = 0;
    const void *ops = view.segment("ops", &ops_bytes);
    const void *operands = view.segment("operands", &operand_bytes);
    const void *spans = view.segment("spans", &span_bytes);
    if (!ops || !operands || !spans)
        return fail(error, "flat trace: missing segment");
    if (ops_bytes > UINT32_MAX ||
        operand_bytes != ops_bytes * sizeof(std::uint64_t) ||
        span_bytes % (2 * sizeof(std::uint32_t)) != 0)
        return fail(error, "flat trace: segment sizes disagree");

    const std::uint32_t events =
        static_cast<std::uint32_t>(ops_bytes);
    const std::size_t thread_count =
        span_bytes / (2 * sizeof(std::uint32_t));
    std::vector<FlatTrace::Span> threads(thread_count);
    // Empty span table: both pointers may be null, and memcpy with a
    // null pointer is undefined even for zero bytes.
    if (span_bytes > 0)
        std::memcpy(threads.data(), spans, span_bytes);
    // Spans must tile [0, events) in thread order — the same shape
    // FlatTrace::build produces and the replay driver indexes by.
    std::uint32_t expected_begin = 0;
    for (const FlatTrace::Span &s : threads) {
        if (s.begin != expected_begin || s.end < s.begin ||
            s.end > events)
            return fail(error, "flat trace: span table malformed");
        expected_begin = s.end;
    }
    if (expected_begin != events)
        return fail(error, "flat trace: spans do not cover the arena");

    out.opsStorage.clear();
    out.operandStorage.clear();
    out.arena = std::move(view);
    out.ops = static_cast<const std::uint8_t *>(
        out.arena.segment("ops", &ops_bytes));
    out.operands = static_cast<const std::uint64_t *>(
        out.arena.segment("operands", &operand_bytes));
    out.events = events;
    out.threads = std::move(threads);
    return true;
}

} // namespace crw
