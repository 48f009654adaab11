/**
 * @file
 * BatchedEngineView: the statically-specialized engine event path of
 * every production replay (trace/replay_batch.cc) and of the microtrace
 * walks (bench/exhibit_microtrace.cc). One view fronts an array of
 * K >= 1 WindowEngines that follow the same schedule of engine events
 * (one FlatTrace replayed under one policy, or one random call-depth
 * walk), so one forward pass over that schedule advances all K engine
 * states; a per-point replay is the width-1 case.
 *
 * Lane 0 (the leader) advances inline with the control loop. Each of
 * its event methods is the same body as the corresponding
 * WindowEngine member (engine.cc — the oracle), with compile-time
 * specializations applied:
 *
 *  - the Scheme handler is called on the concrete final class
 *    (schemes_impl.h), so it devirtualizes and inlines into the
 *    caller's event loop;
 *  - CostModel lookups go through precomputed FlatCostTables
 *    (cost_model.h), one dense array per cost family;
 *  - the Checked = false flavor of the scheme event bodies is
 *    instantiated: structural assertions are not evaluated on this
 *    path (see the policy note in win/window_file.h); the oracle
 *    keeps them all.
 *
 * The leader writes its engine's own counters and clock through
 * friendship, so a run driven through the view is indistinguishable —
 * bit-for-bit, including the switch-cost Distribution's summation
 * order — from one driven through the engine members. There is no
 * observer hook and no postEventCheck(): engines that carry an
 * observer or checkInvariants replay on the oracle loop
 * (trace/replay_driver.h), and the view refuses them.
 *
 * Why K > 1 is sound: the replay state machine's control flow
 * (dispatch order, stream blocking, thread scripts) never reads engine
 * state except at one point — working-set queue placement consults
 * isResident() at wake time. Under FIFO the placement ignores
 * residency entirely, so every lane follows the identical schedule no
 * matter how its window count, PRW reclamation or allocation policy
 * differ; under working-set the batch runs optimistically and every
 * residency read is re-verified on every lane (below), aborting the
 * batch on the first disagreement. A microtrace walk's choices read
 * only the running thread's call depth, which every lane shares
 * (depth() below), so its lanes never diverge.
 *
 * Followers: while the leader runs, the view records the *engine op
 * stream* — the sequence of save/restore/switch/exit events plus,
 * under working-set, the residency checkpoints. Charges never enter
 * the stream; they are lane-invariant trace operands. finish() then
 * replays the recorded stream through the followers, in one of two
 * pass shapes:
 *
 *   Per lane — one tight linear pass over the op array per follower,
 *   the lane's window file cache-hot and the branch predictor seeing
 *   one lane's trap pattern at a time. The scalar tier, and always
 *   the sharing schemes (SNP, SP).
 *
 *   Lane-SoA — NS and INF on the vector tiers (DESIGN.md §16,
 *   $CRW_SIMD): the followers' hot state is transposed into the
 *   lane-major arrays of win/lane_soa.h and ONE walk over the stream
 *   applies each op to every lane at once. Runs of same-thread
 *   saves/restores collapse into single calls of the closed-form
 *   kernels (win/scheme.h RunFold math, vectorized 4- or 8-wide);
 *   switches and exits stay scalar per lane against the transposed
 *   state. The per-lane engines are only touched again at writeback,
 *   which materializes the SoA state through the WindowFile import
 *   primitives. Both shapes are bit-identical by construction — the
 *   SoA recurrences are the proven closed forms of the scalar bodies —
 *   and the differential suite pins them against each other.
 *
 *   A follower that disagrees with a recorded residency checkpoint
 *   would have forked the schedule at that wake, so finish() returns
 *   false and the caller discards the whole batch (the executor
 *   re-replays those points individually).
 *
 * Everything the shared schedule makes lane-invariant — charge
 * cycles, the save/restore/switch/exit event counts and the
 * per-thread tallies — a follower takes from the leader at finish(),
 * as the leader engine's deltas from a snapshot taken when the view
 * was built. The per-op work that remains on each follower is exactly
 * the divergent residue: the scheme's window motion and the
 * trap/switch costs it implies. Consequently a follower's clock
 * decomposes as
 *
 *   now(l) = offset(l) + charges + psr(l)·(saves+restores)
 *
 * with offset(l) starting at the lane's clock and accumulating only
 * its trap and switch costs — all integer arithmetic, so the
 * decomposition is exact and the flushed state is bit-identical to a
 * per-point replay's.
 */

#ifndef CRW_WIN_ENGINE_BATCH_H_
#define CRW_WIN_ENGINE_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/aligned.h"
#include "common/logging.h"
#include "win/engine.h"
#include "win/lane_soa.h"
#include "win/schemes_impl.h"
#include "win/simd.h"

namespace crw {

namespace detail {

/**
 * One recorded engine op, packed to eight bytes so a follower pass
 * streams the fewest possible cache lines (charges never enter the
 * stream, and the lane-invariant counts come from the leader).
 */
struct BatchOpRec
{
    enum class Kind : std::uint8_t {
        Save,
        Restore,
        Switch,
        Exit,
        WakeCheck,
    };
    Kind kind;
    std::uint8_t resident; ///< WakeCheck only: leader's answer
    std::int16_t a;        ///< op tid, or switch-from
    std::int16_t b;        ///< switch-to
    std::uint16_t pad = 0;
};
static_assert(sizeof(BatchOpRec) == 8, "op stream packing");

/**
 * The calling thread's op stream, reused by every batch the thread
 * replays (one batch runs at a time per thread). A stream is several
 * megabytes per spell trace; allocated and freed once per batch, such
 * buffers left the heap's high-water mark to drift with wherever
 * unrelated small allocations landed between them, so a sweep's peak
 * resident memory depended on allocation order.
 */
inline AlignedVec<BatchOpRec> &
threadOpStream()
{
    thread_local AlignedVec<BatchOpRec> ops;
    return ops;
}

} // namespace detail

template <typename SchemeT>
class BatchedEngineView
{
  public:
    /**
     * @param leader Lane 0's engine.
     * @param followers The other @p lanes - 1 engines. All K share the
     *        scheme kind; window counts and PRW/allocation variants
     *        may differ per lane. None may carry an observer or
     *        checkInvariants (oracle-only features), and every
     *        follower must be at the leader's point of the schedule:
     *        freshly constructed with the same registered threads, or
     *        flushed there by the finish() of a previous view over the
     *        same engines. A long schedule may thus be driven as a
     *        sequence of views, one per chunk, which keeps the
     *        recorded op stream short.
     */
    BatchedEngineView(WindowEngine &leader,
                      WindowEngine *const *followers, std::size_t lanes)
        : e_(leader),
          s_(static_cast<SchemeT &>(*e_.scheme_)),
          t_(e_.cost_, e_.kind_, e_.file_.numWindows())
    {
        crw_assert(lanes > 0);
        crw_assert(s_.kind() == e_.kind_);
        crw_assert(!e_.checkInvariants_);
        crw_assert(!e_.observer_);
        if (lanes > 1)
            followers_ =
                std::make_unique<Followers>(leader, followers, lanes);
    }

    /**
     * Pre-size the recorded op stream (engine ops are a fraction of
     * @p trace_events; half is a generous ceiling). No-op at width 1,
     * which records nothing.
     */
    void
    reserveOps(std::size_t trace_events)
    {
        if (followers_)
            followers_->ops.reserve(trace_events / 2);
    }

    void
    save()
    {
        crw_assert(e_.current_ != kNoThread);
        const ThreadId tid = e_.current_;
        const OpOutcome out = s_.template doSave<false>(tid);

        ++e_.hot_.saves;
        ++e_.threadCounters_[static_cast<std::size_t>(tid)].saves;
        Cycles cycles = t_.plainSaveRestore();
        if (out.trapped)
            cycles += overflowTrap(e_.hot_, t_, out.windowsSaved);
        e_.hot_.cyclesCallret += t_.plainSaveRestore();
        e_.now_ += cycles;
        if (followers_)
            followers_->record(OpRec::Kind::Save, tid, kNoThread);
    }

    void
    restore()
    {
        crw_assert(e_.current_ != kNoThread);
        const ThreadId tid = e_.current_;
        const OpOutcome out = s_.template doRestore<false>(tid);

        ++e_.hot_.restores;
        ++e_.threadCounters_[static_cast<std::size_t>(tid)].restores;
        Cycles cycles = t_.plainSaveRestore();
        if (out.trapped)
            cycles += underflowTrap(e_.hot_, t_, out.windowsRestored);
        e_.hot_.cyclesCallret += t_.plainSaveRestore();
        e_.now_ += cycles;
        if (followers_)
            followers_->record(OpRec::Kind::Restore, tid, kNoThread);
    }

    /** Switch every lane to @p to; followers re-derive their costs. */
    void
    contextSwitch(ThreadId to)
    {
        crw_assert(to != e_.current_);
        const ThreadId from = e_.current_;
        e_.now_ += applySwitch(s_, t_, e_, e_.hot_, from, to);
        e_.current_ = to;
        ++e_.hot_.switches;
        ++e_.threadCounters_[static_cast<std::size_t>(to)].switchesIn;
        if (followers_)
            followers_->record(OpRec::Kind::Switch, from, to);
    }

    void
    threadExit()
    {
        crw_assert(e_.current_ != kNoThread);
        s_.template doExit<false>(e_.current_);
        ++e_.stats_.counter("thread_exits");
        if (followers_)
            followers_->record(OpRec::Kind::Exit, e_.current_,
                               kNoThread);
        e_.current_ = kNoThread;
    }

    /** Charges are lane-invariant: only the leader's clock moves. */
    void
    charge(Cycles cycles)
    {
        e_.hot_.cyclesCompute += cycles;
        e_.now_ += cycles;
    }

    /**
     * Working-set wake support: the leader's residency of @p tid (the
     * queue-placement input the scheduler consumes) plus a recorded
     * checkpoint every follower must reproduce during replay — a
     * disagreement there means that lane's schedule would have forked
     * at this wake, and finish() reports the batch as diverged.
     */
    bool resident(ThreadId tid) const { return e_.isResident(tid); }

    void
    recordWakeCheck(ThreadId tid, bool leader_resident)
    {
        if (followers_)
            followers_->record(OpRec::Kind::WakeCheck, tid, kNoThread,
                               leader_resident);
    }

    ThreadId current() const { return e_.current_; }

    /** Leader clock; followers are only live after finish(). */
    Cycles now() const { return e_.now_; }

    /**
     * Call depth of @p tid. Depth is pure call nesting — every scheme
     * pushes/pops exactly one frame per save/restore — so it is
     * identical across lanes; the leader answers for all.
     */
    int depth(ThreadId tid) const { return e_.file_.thread(tid).depth; }

    /**
     * The follower pass finish() actually dispatched: the SoA tier it
     * ran, or Scalar when the per-lane pass handled the followers
     * (scalar tier, the sharing schemes, or a width-1 batch that
     * replays nothing). What replay.simd_path publishes.
     */
    SimdTier
    simdPathTaken() const
    {
        return followers_ ? followers_->simdPathTaken : SimdTier::Scalar;
    }

    /**
     * Replay the recorded op stream through every follower lane, then
     * flush the leader's lane-invariant tallies into them. Call
     * exactly once, when the control loop has drained.
     *
     * @return false when a follower disagreed with a recorded
     *         residency checkpoint (working-set divergence): nothing
     *         is flushed and every lane's engine must be discarded.
     */
    bool finish() { return !followers_ || followers_->finish(e_); }

  private:
    using OpRec = detail::BatchOpRec;

    // The divergent per-op residue, shared verbatim by the leader
    // (inline with the control loop) and the follower replay. Each
    // returns the cycles the caller's clock advances by.

    static Cycles
    overflowTrap(WindowEngine::HotCounters &h, const FlatCostTables &t,
                 int windows_saved)
    {
        ++h.ovfTraps;
        h.ovfSpilled += static_cast<std::uint64_t>(windows_saved);
        const Cycles trap = t.overflowCost(windows_saved);
        h.cyclesTrap += trap;
        return trap;
    }

    static Cycles
    underflowTrap(WindowEngine::HotCounters &h, const FlatCostTables &t,
                  int windows_restored)
    {
        ++h.unfTraps;
        h.unfRestored += static_cast<std::uint64_t>(windows_restored);
        const Cycles trap = t.underflowCost();
        h.cyclesTrap += trap;
        return trap;
    }

    static Cycles
    applySwitch(SchemeT &s, const FlatCostTables &t, WindowEngine &e,
                WindowEngine::HotCounters &h, ThreadId from,
                ThreadId to)
    {
        crw_assert(e.file_.hasThread(to));
        const SwitchOutcome out =
            s.template doSwitchIn<false>(from, to);
        return chargeSwitch(t, e, h, out.windowsSaved,
                            out.windowsRestored);
    }

    /** applySwitch's tally residue, also used by the SoA pass. */
    static Cycles
    chargeSwitch(const FlatCostTables &t, WindowEngine &e,
                 WindowEngine::HotCounters &h, int saved, int restored)
    {
        h.switchSaved += static_cast<std::uint64_t>(saved);
        h.switchRestored += static_cast<std::uint64_t>(restored);
        if (saved < WindowEngine::kSmallSwitchCase &&
            restored < WindowEngine::kSmallSwitchCase)
            ++e.switchCasesSmall_[saved][restored];
        else
            ++e.switchCasesLarge_[{saved, restored}];
        const Cycles cycles = t.switchCost(saved, restored);
        h.cyclesSwitch += cycles;
        e.dSwitchCost_->sample(static_cast<double>(cycles));
        return cycles;
    }

    // Scheme shape traits of the SoA pass.
    static constexpr bool kSoaIsInf =
        std::is_same_v<SchemeT, detail::InfiniteScheme>;
    static constexpr bool kSoaIsNs =
        std::is_same_v<SchemeT, detail::NsScheme>;

    /**
     * The follower lanes of a width > 1 batch and the op stream they
     * replay, allocated only for such a batch: a width-1 view — every
     * per-point replay — carries no follower state, snapshot or
     * stream, just a null pointer tested per event.
     */
    class Followers
    {
      public:
        Followers(WindowEngine &leader, WindowEngine *const *followers,
                  std::size_t lanes)
            : ops(detail::threadOpStream()),
              startHot_(leader.hot_),
              startThreads_(leader.threadCounters_),
              startExits_(leader.stats_.counter("thread_exits").value())
        {
            ops.clear();
            lanes_.reserve(lanes - 1);
            for (std::size_t l = 1; l < lanes; ++l) {
                WindowEngine &e = *followers[l - 1];
                crw_assert(e.kind_ == leader.kind_);
                crw_assert(!e.checkInvariants_);
                crw_assert(!e.observer_);
                crw_assert(e.current_ == leader.current_);
                crw_assert(e.threadCounters_.size() ==
                           leader.threadCounters_.size());
                Lane f{&e, static_cast<SchemeT *>(e.scheme_.get()),
                       FlatCostTables(e.cost_, e.kind_,
                                      e.file_.numWindows()),
                       e.hot_, e.now_, 0};
                f.psr = f.t.plainSaveRestore();
                lanes_.push_back(std::move(f));
            }
        }

        void
        record(OpRec::Kind kind, ThreadId a, ThreadId b,
               bool resident = false)
        {
            crw_assert(a >= INT16_MIN && a <= INT16_MAX);
            crw_assert(b >= INT16_MIN && b <= INT16_MAX);
            ops.push_back({kind, static_cast<std::uint8_t>(resident),
                           static_cast<std::int16_t>(a),
                           static_cast<std::int16_t>(b)});
        }

        /**
         * BatchedEngineView::finish() for width > 1, against the
         * drained @p leader. Out of line: it runs once per batch and
         * must not bloat the flattened loop around the hot events.
         */
        __attribute__((noinline)) bool
        finish(WindowEngine &leader)
        {
            if (!replay())
                return false;

            const WindowEngine::HotCounters &h0 = leader.hot_;
            const std::uint64_t saves = h0.saves - startHot_.saves;
            const std::uint64_t restores =
                h0.restores - startHot_.restores;
            const std::uint64_t switches =
                h0.switches - startHot_.switches;
            const Cycles charges =
                h0.cyclesCompute - startHot_.cyclesCompute;
            const std::uint64_t exits =
                leader.stats_.counter("thread_exits").value() -
                startExits_;
            for (Lane &f : lanes_) {
                WindowEngine &e = *f.e;
                WindowEngine::HotCounters &h = f.hot;
                const Cycles callret = f.psr * (saves + restores);
                h.saves += saves;
                h.restores += restores;
                h.switches += switches;
                h.cyclesCallret += callret;
                h.cyclesCompute += charges;
                e.hot_ = h;
                e.now_ = f.offset + charges + callret;
                e.current_ = leader.current_;
                e.stats_.counter("thread_exits") += exits;
                for (std::size_t tid = 0; tid < startThreads_.size();
                     ++tid) {
                    const ThreadCounters &lead =
                        leader.threadCounters_[tid];
                    const ThreadCounters &start = startThreads_[tid];
                    ThreadCounters &tc = e.threadCounters_[tid];
                    tc.saves += lead.saves - start.saves;
                    tc.restores += lead.restores - start.restores;
                    tc.switchesIn += lead.switchesIn - start.switchesIn;
                }
            }
            return true;
        }

        /** The engine op stream the followers replay; 64-byte aligned
         *  so the SoA pass's linear walk never splits a cache line
         *  (eight 8-byte records per line). */
        AlignedVec<OpRec> &ops;
        SimdTier simdPathTaken = SimdTier::Scalar;

      private:
        /**
         * A follower lane's engine and dense hot state: the diverging
         * counters, the clock offset (start clock plus this lane's
         * trap and switch costs), and the hoisted plain save/restore
         * cost.
         */
        struct Lane
        {
            WindowEngine *e;
            SchemeT *s;
            FlatCostTables t;
            WindowEngine::HotCounters hot;
            Cycles offset;
            Cycles psr;
        };

        bool
        replay()
        {
            // The sharing schemes always take the per-lane pass: their
            // slot-map eviction probes are serial per lane, and
            // interleaving lanes in one walk lost ~25% to cross-lane
            // branch aliasing (DESIGN.md §16).
            if constexpr (kSoaIsNs || kSoaIsInf) {
                const SimdTier tier = effectiveSimdTier();
                if (tier != SimdTier::Scalar) {
                    simdPathTaken = tier;
                    return replaySoa(tier);
                }
            }
            // One lane per stream pass, so the branch predictor sees a
            // single lane's trap pattern per pass (pairing lanes was
            // measured slower — the per-op trap branches alias across
            // lanes and mispredict).
            for (Lane &f : lanes_)
                if (!replayLane(f))
                    return false;
            return true;
        }

        /**
         * The per-lane follower pass: one linear walk over the op
         * stream applying @p f's scheme bodies against local
         * (alias-free) state. Per-lane event order — and with it the
         * switch-cost Distribution's sample order and the switch-case
         * histograms — matches a per-point replay exactly, because the
         * stream *is* the shared schedule restricted to engine ops.
         */
        bool
        replayLane(Lane &f)
        {
            SchemeT &s = *f.s;
            WindowEngine::HotCounters h = f.hot;
            Cycles offset = f.offset;
            for (const OpRec &op : ops) {
                switch (op.kind) {
                  case OpRec::Kind::Save: {
                    const OpOutcome out =
                        s.template doSave<false>(op.a);
                    if (out.trapped)
                        offset +=
                            overflowTrap(h, f.t, out.windowsSaved);
                    break;
                  }
                  case OpRec::Kind::Restore: {
                    const OpOutcome out =
                        s.template doRestore<false>(op.a);
                    if (out.trapped)
                        offset +=
                            underflowTrap(h, f.t, out.windowsRestored);
                    break;
                  }
                  case OpRec::Kind::Switch:
                    offset += applySwitch(s, f.t, *f.e, h, op.a, op.b);
                    break;
                  case OpRec::Kind::Exit:
                    s.template doExit<false>(op.a);
                    break;
                  case OpRec::Kind::WakeCheck:
                    // A mismatch abandons the local state unsaved;
                    // every lane is garbage anyway once the batch
                    // diverges.
                    if (f.e->isResident(op.a) != (op.resident != 0))
                        return false;
                    break;
                }
            }
            f.hot = h;
            f.offset = offset;
            return true;
        }

        /**
         * The lane-SoA follower pass for NS and INF (DESIGN.md §16):
         * transpose the followers' hot state into win/lane_soa.h
         * arrays, walk the op stream ONCE applying each op to every
         * lane — same-thread save/restore runs through the tier's
         * vector kernels, switches and exits scalar per lane against
         * the transposed state — then materialize the surviving state
         * back into the engines. Bit-identity with replayLane is by
         * construction: every recurrence here is the closed form of
         * the corresponding scalar scheme body (win/scheme.h RunFold
         * derivations), and the differential suite pins the two
         * passes against each other.
         *
         * @return false on a working-set residency mismatch; nothing
         *         is written back (the engines are discarded
         *         wholesale).
         */
        bool
        replaySoa(SimdTier tier)
        {
            static_assert(kSoaIsNs || kSoaIsInf,
                          "the sharing schemes replay per lane");
            const LaneKernels &kern = laneKernels(tier);
            const std::size_t nl = lanes_.size();
            const int threads = static_cast<int>(startThreads_.size());

            LaneSoA soa;
            soa.init(nl, threads);

            // --- transpose --------------------------------------------
            // Followers were never touched by the control loop, so their
            // files still hold the batch's start state. The shared call
            // depths come from the first follower: depth is pure call
            // nesting and the lockstep contract makes it lane-invariant.
            for (std::size_t j = 0; j < nl; ++j) {
                const Lane &f = lanes_[j];
                const WindowFile &file = f.e->file_;
                soa.numWin[j] = file.numWindows();
                soa.nsCap[j] = file.numWindows() - 1;
                const Cycles ovf1 = f.t.overflowCost(1);
                const Cycles unf = f.t.underflowCost();
                // The vector tally fold multiplies traps by cost in one
                // 32x32->64 lane product.
                crw_assert(ovf1 <= UINT32_MAX && unf <= UINT32_MAX);
                soa.ovfCost1[j] = ovf1;
                soa.unfCost[j] = unf;
                for (ThreadId tid = 0; tid < threads; ++tid) {
                    const ThreadWindows &tw = file.thread(tid);
                    soa.topOf(tid)[j] = tw.top;
                    soa.resOf(tid)[j] = tw.resident;
                }
            }
            std::vector<int> depth(static_cast<std::size_t>(threads));
            for (ThreadId tid = 0; tid < threads; ++tid)
                depth[static_cast<std::size_t>(tid)] =
                    lanes_[0].e->file_.thread(tid).depth;

            auto belowAt = [&soa](std::size_t j, int w) {
                return w + 1 == soa.numWin[j] ? 0 : w + 1;
            };
            auto wrapAt = [&soa](std::size_t j, int x) {
                const int n = soa.numWin[j];
                x %= n;
                return x < 0 ? x + n : x;
            };

            // WindowFile::dropAll (root-frame return and thread exit).
            auto dropAllAt = [&](std::size_t j, ThreadId tid) {
                soa.resOf(tid)[j] = 0;
                soa.topOf(tid)[j] = kNoWindow;
            };

            // doSwitchIn per scheme, then applySwitch's tally residue
            // (histograms and the switch-cost Distribution sample in
            // recorded op order, so each lane's sample sequence matches a
            // per-point replay). Residency of `to` may genuinely differ
            // across lanes; call depth cannot (the dispatcher below
            // maintains the shared depth array once per op).
            auto switchAt = [&](std::size_t j, ThreadId from,
                                ThreadId to) {
                int saved = 0;
                int restored = 0;
                if constexpr (kSoaIsNs) {
                    if (from != kNoThread) {
                        std::int32_t *fres = soa.resOf(from);
                        saved = fres[j]; // flush the whole run
                        fres[j] = 0;
                        soa.topOf(from)[j] = kNoWindow;
                    }
                    soa.topOf(to)[j] = 0; // NS schedules into slot 0
                    soa.resOf(to)[j] = 1;
                    if (depth[static_cast<std::size_t>(to)] > 0)
                        restored = 1;
                } // INF: no window motion, ever
                Lane &f = lanes_[j];
                soa.offset[j] +=
                    chargeSwitch(f.t, *f.e, f.hot, saved, restored);
            };

            // --- the single walk --------------------------------------
            const std::size_t nops = ops.size();
            std::size_t i = 0;
            while (i < nops) {
                const OpRec &op = ops[i];
                switch (op.kind) {
                  case OpRec::Kind::Save: {
                    std::size_t r = i + 1;
                    while (r < nops &&
                           ops[r].kind == OpRec::Kind::Save &&
                           ops[r].a == op.a)
                        ++r;
                    const int k = static_cast<int>(r - i);
                    const ThreadId tid = op.a;
                    depth[static_cast<std::size_t>(tid)] += k;
                    if constexpr (kSoaIsNs)
                        kern.nsSaveRun(soa, tid, k);
                    i = r;
                    break;
                  }
                  case OpRec::Kind::Restore: {
                    std::size_t r = i + 1;
                    while (r < nops &&
                           ops[r].kind == OpRec::Kind::Restore &&
                           ops[r].a == op.a)
                        ++r;
                    const int k = static_cast<int>(r - i);
                    const ThreadId tid = op.a;
                    const int d = depth[static_cast<std::size_t>(tid)];
                    crw_assert(k <= d);
                    // The run's last restore is the root-frame return
                    // exactly when it empties the call stack; it drops
                    // all windows instead of trapping, so it is peeled
                    // off the folded run (restoreRunFold precondition).
                    const int k1 = k < d ? k : d - 1;
                    if constexpr (kSoaIsNs) {
                        if (k1 > 0)
                            kern.nsRestoreRun(soa, tid, k1);
                        if (k1 < k)
                            for (std::size_t j = 0; j < nl; ++j)
                                dropAllAt(j, tid);
                    }
                    depth[static_cast<std::size_t>(tid)] -= k;
                    i = r;
                    break;
                  }
                  case OpRec::Kind::Switch: {
                    for (std::size_t j = 0; j < nl; ++j)
                        switchAt(j, op.a, op.b);
                    if (depth[static_cast<std::size_t>(op.b)] == 0)
                        depth[static_cast<std::size_t>(op.b)] =
                            1; // root frame of a fresh thread
                    ++i;
                    break;
                  }
                  case OpRec::Kind::Exit: {
                    if constexpr (kSoaIsNs)
                        for (std::size_t j = 0; j < nl; ++j)
                            dropAllAt(j, op.a);
                    depth[static_cast<std::size_t>(op.a)] = 0;
                    ++i;
                    break;
                  }
                  case OpRec::Kind::WakeCheck: {
                    if (kern.wakeMismatch(soa, op.a, op.resident))
                        return false;
                    ++i;
                    break;
                  }
                }
            }

            // --- writeback --------------------------------------------
            for (std::size_t j = 0; j < nl; ++j) {
                Lane &f = lanes_[j];
                WindowEngine::HotCounters &h = f.hot;
                h.ovfTraps += soa.ovfTraps[j];
                h.ovfSpilled += soa.ovfSpilled[j];
                h.unfTraps += soa.unfTraps[j];
                h.unfRestored += soa.unfRestored[j];
                h.cyclesTrap += soa.cyclesTrap[j];
                f.offset += soa.offset[j];
                WindowFile &file = f.e->file_;
                if constexpr (kSoaIsInf) {
                    for (ThreadId tid = 0; tid < threads; ++tid) {
                        ThreadWindows tw;
                        tw.depth = depth[static_cast<std::size_t>(tid)];
                        file.importThread(tid, tw);
                    }
                } else {
                    file.resetSlotsForImport();
                    for (ThreadId tid = 0; tid < threads; ++tid) {
                        ThreadWindows tw;
                        tw.resident = soa.resOf(tid)[j];
                        tw.depth = depth[static_cast<std::size_t>(tid)];
                        if (tw.resident > 0) {
                            // NS keeps `top` unwrapped during the pass;
                            // the single wrap happens here. Its slots are
                            // the contiguous run below top (the invariant
                            // NS growth preserves).
                            tw.top = wrapAt(j, soa.topOf(tid)[j]);
                            int w = tw.top;
                            for (int c = 0; c < tw.resident; ++c) {
                                file.importSlot(w, WinState::Owned, tid);
                                w = belowAt(j, w);
                            }
                        }
                        file.importThread(tid, tw);
                    }
                }
            }
            return true;
        }

        // The leader's lane-invariant tallies when the view was built;
        // finish() hands each follower the leader's deltas from these.
        const WindowEngine::HotCounters startHot_;
        const std::vector<ThreadCounters> startThreads_;
        const std::uint64_t startExits_;
        std::vector<Lane> lanes_;
    };

    // The leader: its engine, concrete scheme and flat cost tables.
    WindowEngine &e_;
    SchemeT &s_;
    const FlatCostTables t_;
    /** Width > 1 only: the follower lanes and their op stream. */
    std::unique_ptr<Followers> followers_;
};

/**
 * Call @p f with std::type_identity<SchemeT>{} for the concrete scheme
 * class of @p kind: the one place a runtime SchemeKind picks the
 * BatchedEngineView instantiation its caller drives (the replay loop,
 * trace/replay_batch.cc, and the microtrace walk,
 * bench/exhibit_microtrace.cc).
 */
template <typename F>
decltype(auto)
visitSchemeClass(SchemeKind kind, F &&f)
{
    switch (kind) {
      case SchemeKind::NS:
        return f(std::type_identity<detail::NsScheme>{});
      case SchemeKind::SNP:
        return f(std::type_identity<detail::SnpScheme>{});
      case SchemeKind::SP:
        return f(std::type_identity<detail::SpScheme>{});
      case SchemeKind::Infinite:
        return f(std::type_identity<detail::InfiniteScheme>{});
    }
    crw_unreachable("bad scheme kind");
}

} // namespace crw

#endif // CRW_WIN_ENGINE_BATCH_H_
