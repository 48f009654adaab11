/**
 * @file
 * Ownership model of the cyclic register-window file.
 *
 * This is the event-level abstraction of Figure 5 of the paper: each of
 * the N windows is free, owned by a thread (holding one live activation
 * record of that thread), or a thread's private reserved window (PRW,
 * SP scheme only). Window *contents* are not modeled here — the ISA
 * layer (src/sparc) does that; this layer models exactly the state the
 * window-management algorithms manipulate.
 *
 * Direction convention follows the paper: window i-1 is "above" window
 * i (the direction `save` moves), i+1 is "below" (`restore`). A
 * resident thread's windows always form one contiguous cyclic run from
 * its stack-bottom (oldest frame, lowest end) to its stack-top (newest
 * frame, highest end); this is the key invariant the paper's
 * restore-in-place underflow handling preserves.
 */

#ifndef CRW_WIN_WINDOW_FILE_H_
#define CRW_WIN_WINDOW_FILE_H_

#include <vector>

#include "common/cyclic.h"
#include "common/logging.h"
#include "common/types.h"

namespace crw {

/** State of one window slot. */
enum class WinState : std::uint8_t {
    Free,  ///< dead: contents are garbage, may be taken freely
    Owned, ///< holds a live activation record of `owner`
    Prw,   ///< private reserved window of `owner` (SP scheme)
};

/** One slot of the cyclic window file. */
struct WindowSlot
{
    WinState state = WinState::Free;
    ThreadId owner = kNoThread;
};

/** Residency bookkeeping for one thread. */
struct ThreadWindows
{
    /** Stack-top window (newest resident frame); kNoWindow if none. */
    WindowIndex top = kNoWindow;
    /** Number of resident Owned windows. */
    int resident = 0;
    /** PRW slot (SP scheme), kNoWindow otherwise. */
    WindowIndex prw = kNoWindow;
    /** Total live frames, resident plus spilled to the memory stack. */
    int depth = 0;

    bool isResident() const { return resident > 0; }

    /** Frames currently spilled to the thread's memory stack. */
    int memFrames() const { return depth - resident; }
};

/**
 * The cyclic window file plus per-thread residency records.
 *
 * All mutation happens through the scheme implementations; this class
 * provides primitive transitions and a full invariant check used after
 * every engine operation in checked builds/tests.
 */
class WindowFile
{
  public:
    explicit WindowFile(int num_windows);

    int numWindows() const { return space_.size(); }
    const CyclicSpace &space() const { return space_; }

    template <bool Checked = true>
    const WindowSlot &slot(WindowIndex w) const;
    template <bool Checked = true>
    WinState
    state(WindowIndex w) const
    {
        return slot<Checked>(w).state;
    }
    template <bool Checked = true>
    ThreadId
    owner(WindowIndex w) const
    {
        return slot<Checked>(w).owner;
    }
    template <bool Checked = true>
    bool
    isFree(WindowIndex w) const
    {
        return state<Checked>(w) == WinState::Free;
    }

    /** Register a new thread id (depth 0, not resident). */
    void addThread(ThreadId tid);
    bool hasThread(ThreadId tid) const;

    template <bool Checked = true>
    ThreadWindows &thread(ThreadId tid);
    template <bool Checked = true>
    const ThreadWindows &thread(ThreadId tid) const;

    /** Stack-bottom window of a resident thread. */
    template <bool Checked = true>
    WindowIndex bottomOf(ThreadId tid) const;

    /** True if @p w lies inside @p tid's resident run. */
    bool inRunOf(ThreadId tid, WindowIndex w) const;

    // --- primitive transitions (callers maintain run contiguity) ---
    //
    // Every primitive takes a `Checked` template parameter (default
    // true): whether its structural assertions are *evaluated*. The
    // oracle engine, the invariant checker, and every test keep the
    // checked default; only the devirtualized replay view
    // (win/engine_batch.h) uses Checked = false — its transition
    // sequences are pinned bit-identical to the checked oracle by
    // the differential suites, and evaluating the
    // assertion operands (slot loads, cyclic recomputation) was ~25%
    // of replay wall time. The assertions themselves stay active in
    // all build types, per the crw_assert contract (common/logging.h).

    /** Claim a Free window as the new stack-top of @p tid. */
    template <bool Checked = true>
    void claimAsTop(ThreadId tid, WindowIndex w);

    /** Release @p tid's stack-top (plain restore); top moves below. */
    template <bool Checked = true>
    void releaseTop(ThreadId tid);

    /** Spill @p tid's stack-bottom window: slot freed, frame to memory. */
    template <bool Checked = true>
    void spillBottom(ThreadId tid);

    /**
     * Spill every resident window of @p tid (frames to memory). State-
     * identical to spillBottom repeated until nothing is resident, but
     * one top-down walk instead of recomputing the bottom each time —
     * this is NS's every-switch flush.
     */
    template <bool Checked = true>
    void spillAllFrames(ThreadId tid);

    /** Fill one frame from memory into the Free window @p w as new top. */
    template <bool Checked = true>
    void fillAsTop(ThreadId tid, WindowIndex w);

    /**
     * Restore-in-place (the paper's §3.2 underflow): the caller's frame
     * replaces the callee's in the *same* window. Depth bookkeeping:
     * one frame leaves memory, the resident count is unchanged.
     */
    template <bool Checked = true>
    void refillInPlace(ThreadId tid);

    /**
     * Conventional underflow (NS): the caller's frame is restored into
     * the window *below* the current one, and the replayed restore
     * moves the stack-top there; the old top window dies.
     */
    template <bool Checked = true>
    void refillBelow(ThreadId tid);

    /** Set / move / clear @p tid's PRW. */
    template <bool Checked = true>
    void setPrw(ThreadId tid, WindowIndex w);
    template <bool Checked = true>
    void clearPrw(ThreadId tid);

    /** Free every window (and PRW) of @p tid without memory traffic. */
    void dropAll(ThreadId tid);

    /** Adjust total call depth (save/restore instructions). */
    template <bool Checked = true>
    void pushFrame(ThreadId tid);
    template <bool Checked = true>
    void popFrame(ThreadId tid);

    // --- batched-replay writeback (win/engine_batch.h) ---
    //
    // The SoA follower pass (NS and INF batches) evolves every
    // lane's window state in transposed lane-major arrays and only
    // materializes it into the real WindowFile once the whole batch
    // completes. These importers
    // are that materialization: raw assignments with no invariant
    // maintenance — the pass guarantees the imported state is exactly
    // what the primitive-transition sequence would have produced, and
    // the differential suite re-verifies the result with
    // checkInvariants().

    /** Mark every slot Free (import precedes re-owning them). */
    void
    resetSlotsForImport()
    {
        for (WindowSlot &s : slots_)
            s = {WinState::Free, kNoThread};
    }

    /** Raw slot assignment (batched-replay writeback only). */
    void
    importSlot(WindowIndex w, WinState state, ThreadId owner)
    {
        slots_[static_cast<std::size_t>(w)] = {state, owner};
    }

    /** Raw per-thread record assignment (writeback only). */
    void
    importThread(ThreadId tid, const ThreadWindows &tw)
    {
        threads_[static_cast<std::size_t>(tid)] = tw;
    }

    /** Number of Free slots. */
    int freeCount() const;

    /**
     * Verify every structural invariant (slot/record agreement, run
     * contiguity, disjointness, PRW adjacency). Panics on violation.
     * @param sp_scheme whether PRW invariants should be enforced.
     */
    void checkInvariants(bool sp_scheme) const;

  private:
    CyclicSpace space_;
    std::vector<WindowSlot> slots_;
    std::vector<ThreadWindows> threads_; // indexed by ThreadId
};

// The primitives below run on every simulated save/restore/switch
// (hundreds of millions of times per sweep); they are defined inline
// so the scheme implementations can flatten them.

template <bool Checked>
inline const WindowSlot &
WindowFile::slot(WindowIndex w) const
{
    if constexpr (Checked)
        crw_assert(w >= 0 && w < space_.size());
    return slots_[static_cast<std::size_t>(w)];
}

inline bool
WindowFile::hasThread(ThreadId tid) const
{
    return tid >= 0 && tid < static_cast<ThreadId>(threads_.size());
}

template <bool Checked>
inline ThreadWindows &
WindowFile::thread(ThreadId tid)
{
    if constexpr (Checked)
        crw_assert(hasThread(tid));
    return threads_[static_cast<std::size_t>(tid)];
}

template <bool Checked>
inline const ThreadWindows &
WindowFile::thread(ThreadId tid) const
{
    if constexpr (Checked)
        crw_assert(hasThread(tid));
    return threads_[static_cast<std::size_t>(tid)];
}

template <bool Checked>
inline WindowIndex
WindowFile::bottomOf(ThreadId tid) const
{
    const ThreadWindows &tw = thread<Checked>(tid);
    if constexpr (Checked)
        crw_assert(tw.isResident());
    return space_.belowBy(tw.top, tw.resident - 1);
}

inline bool
WindowFile::inRunOf(ThreadId tid, WindowIndex w) const
{
    const ThreadWindows &tw = thread(tid);
    if (!tw.isResident())
        return false;
    return space_.inRunBelow(tw.top, tw.resident, w);
}

template <bool Checked>
inline void
WindowFile::claimAsTop(ThreadId tid, WindowIndex w)
{
    ThreadWindows &tw = thread<Checked>(tid);
    if constexpr (Checked) {
        crw_assert(isFree(w));
        if (tw.isResident())
            crw_assert(w == space_.above(tw.top));
    }
    slots_[static_cast<std::size_t>(w)] = {WinState::Owned, tid};
    tw.top = w;
    ++tw.resident;
}

template <bool Checked>
inline void
WindowFile::releaseTop(ThreadId tid)
{
    ThreadWindows &tw = thread<Checked>(tid);
    if constexpr (Checked) // plain restore needs a caller below
        crw_assert(tw.resident >= 2);
    slots_[static_cast<std::size_t>(tw.top)] = {WinState::Free,
                                                kNoThread};
    tw.top = space_.below<Checked>(tw.top);
    --tw.resident;
}

template <bool Checked>
inline void
WindowFile::spillBottom(ThreadId tid)
{
    ThreadWindows &tw = thread<Checked>(tid);
    if constexpr (Checked)
        crw_assert(tw.isResident());
    const WindowIndex b = bottomOf<Checked>(tid);
    slots_[static_cast<std::size_t>(b)] = {WinState::Free, kNoThread};
    --tw.resident;
    if (tw.resident == 0)
        tw.top = kNoWindow;
}

template <bool Checked>
inline void
WindowFile::spillAllFrames(ThreadId tid)
{
    ThreadWindows &tw = thread<Checked>(tid);
    WindowIndex w = tw.top;
    for (int k = tw.resident; k > 0; --k) {
        slots_[static_cast<std::size_t>(w)] = {WinState::Free,
                                               kNoThread};
        w = space_.below<Checked>(w);
    }
    tw.resident = 0;
    tw.top = kNoWindow;
}

template <bool Checked>
inline void
WindowFile::fillAsTop(ThreadId tid, WindowIndex w)
{
    ThreadWindows &tw = thread<Checked>(tid);
    if constexpr (Checked) {
        crw_assert(!tw.isResident());
        crw_assert(tw.memFrames() >= 1);
        crw_assert(isFree(w));
    }
    slots_[static_cast<std::size_t>(w)] = {WinState::Owned, tid};
    tw.top = w;
    tw.resident = 1;
}

template <bool Checked>
inline void
WindowFile::refillInPlace(ThreadId tid)
{
    ThreadWindows &tw = thread<Checked>(tid);
    if constexpr (Checked) {
        crw_assert(tw.resident == 1);
        crw_assert(tw.depth >= 1); // the caller's frame must exist
    }
    // The slot already belongs to tid; only the (unmodeled) contents
    // change: the callee's dead frame is overwritten by the caller's.
    (void)tw;
}

template <bool Checked>
inline void
WindowFile::refillBelow(ThreadId tid)
{
    ThreadWindows &tw = thread<Checked>(tid);
    if constexpr (Checked) {
        crw_assert(tw.resident == 1);
        crw_assert(tw.depth >= 1);
    }
    const WindowIndex below = space_.below<Checked>(tw.top);
    if constexpr (Checked)
        crw_assert(isFree(below));
    slots_[static_cast<std::size_t>(tw.top)] = {WinState::Free,
                                                kNoThread};
    slots_[static_cast<std::size_t>(below)] = {WinState::Owned, tid};
    tw.top = below;
}

template <bool Checked>
inline void
WindowFile::clearPrw(ThreadId tid)
{
    ThreadWindows &tw = thread<Checked>(tid);
    if (tw.prw == kNoWindow)
        return;
    slots_[static_cast<std::size_t>(tw.prw)] = {WinState::Free,
                                                kNoThread};
    tw.prw = kNoWindow;
}

template <bool Checked>
inline void
WindowFile::setPrw(ThreadId tid, WindowIndex w)
{
    ThreadWindows &tw = thread<Checked>(tid);
    if constexpr (Checked)
        crw_assert(isFree(w));
    if (tw.prw != kNoWindow)
        slots_[static_cast<std::size_t>(tw.prw)] = {WinState::Free,
                                                    kNoThread};
    slots_[static_cast<std::size_t>(w)] = {WinState::Prw, tid};
    tw.prw = w;
}

template <bool Checked>
inline void
WindowFile::pushFrame(ThreadId tid)
{
    ++thread<Checked>(tid).depth;
}

template <bool Checked>
inline void
WindowFile::popFrame(ThreadId tid)
{
    ThreadWindows &tw = thread<Checked>(tid);
    if constexpr (Checked)
        crw_assert(tw.depth >= 1);
    --tw.depth;
}

} // namespace crw

#endif // CRW_WIN_WINDOW_FILE_H_
