#include "rt/coroutine.h"

#include "common/logging.h"

// On x86-64 we use a minimal hand-rolled stack switch: ucontext's
// swapcontext performs a sigprocmask system call on every switch,
// which dominates fine-grain simulations (hundreds of thousands of
// context switches per run). The fast path saves/restores only the
// SysV callee-saved registers. Other architectures fall back to
// ucontext.

#if defined(__x86_64__)
#define CRW_FAST_FIBERS 1
#else
#define CRW_FAST_FIBERS 0
#include <ucontext.h>
#endif

// Under AddressSanitizer every stack switch is announced through the
// fiber API, so ASan does not take it for a wild stack-pointer jump;
// other builds compile the announcements away.
#if defined(__SANITIZE_ADDRESS__)
#define CRW_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CRW_ASAN_FIBERS 1
#endif
#endif
#ifdef CRW_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#define CRW_ASAN_SWITCH(call) call
#else
#define CRW_ASAN_SWITCH(call) static_cast<void>(0)
#endif

namespace crw {

namespace {

/**
 * The coroutine about to start, published for the trampoline's first
 * activation (the scheduler is single-host-threaded, so one slot is
 * enough).
 */
Coroutine *g_starting = nullptr;

} // namespace

#if CRW_FAST_FIBERS

extern "C" void crwSwapStack(void **save_sp, void *load_sp);

// Save the six SysV callee-saved GPRs on the current stack, stash the
// stack pointer through save_sp, switch to load_sp, restore, return.
// The FP control words (mxcsr/x87 cw) are not modified anywhere in
// crw, so they are intentionally not saved.
__asm__(
    ".text\n"
    ".align 16\n"
    ".globl crwSwapStack\n"
    ".type crwSwapStack,@function\n"
    "crwSwapStack:\n"
    "    pushq %rbp\n"
    "    pushq %rbx\n"
    "    pushq %r12\n"
    "    pushq %r13\n"
    "    pushq %r14\n"
    "    pushq %r15\n"
    "    movq %rsp, (%rdi)\n"
    "    movq %rsi, %rsp\n"
    "    popq %r15\n"
    "    popq %r14\n"
    "    popq %r13\n"
    "    popq %r12\n"
    "    popq %rbx\n"
    "    popq %rbp\n"
    "    ret\n"
    ".size crwSwapStack,.-crwSwapStack\n");

#endif // CRW_FAST_FIBERS

struct Coroutine::Impl
{
#if CRW_FAST_FIBERS
    void *coroSp = nullptr; ///< saved rsp while suspended
    void *mainSp = nullptr; ///< saved rsp of the resuming context
#else
    ucontext_t context;
    ucontext_t mainContext;
#endif
    // ASan's view (CRW_ASAN_SWITCH): each side's parked fake stack,
    // and the bounds of the resuming context's stack.
    void *mainFake = nullptr, *coroFake = nullptr;
    const void *mainBottom = nullptr;
    std::size_t mainSize = 0;
};

extern "C" void
crwCoroutineTrampoline()
{
    Coroutine *self = g_starting;
    g_starting = nullptr;
    self->body();
    crw_unreachable("coroutine body returned to trampoline");
}

Coroutine::Coroutine(EntryFn entry, std::size_t stack_size)
    : entry_(std::move(entry)),
      stack_(stack_size),
      impl_(std::make_unique<Impl>())
{
    crw_assert(entry_ != nullptr);
    crw_assert(stack_size >= 16 * 1024);
}

Coroutine::~Coroutine()
{
    if (started_ && !finished_) {
        // Abandoning a live coroutine leaks whatever is on its stack;
        // tolerated during error teardown but worth a loud note.
        crw_warn << "coroutine destroyed while suspended";
    }
}

void
Coroutine::body()
{
    CRW_ASAN_SWITCH(__sanitizer_finish_switch_fiber(
        nullptr, &impl_->mainBottom, &impl_->mainSize));
    try {
        entry_();
    } catch (...) {
        pending_ = std::current_exception();
    }
    finished_ = true;
    inside_ = false;
    // Null fake-stack slot: this stack is never resumed.
    CRW_ASAN_SWITCH(__sanitizer_start_switch_fiber(
        nullptr, impl_->mainBottom, impl_->mainSize));
#if CRW_FAST_FIBERS
    crwSwapStack(&impl_->coroSp, impl_->mainSp);
#else
    swapcontext(&impl_->context, &impl_->mainContext);
#endif
    crw_unreachable("finished coroutine resumed");
}

void
Coroutine::start()
{
#if CRW_FAST_FIBERS
    // Build an initial stack image that crwSwapStack can "return"
    // into: six zeroed callee-saved slots, then the trampoline as the
    // ret target. SysV requires rsp % 16 == 8 at function entry, i.e.
    // the ret-target slot must sit at a 16-byte-aligned address.
    auto top = reinterpret_cast<std::uintptr_t>(stack_.data()) +
               stack_.size();
    top &= ~static_cast<std::uintptr_t>(15);
    auto *slots = reinterpret_cast<void **>(top);
    slots[-2] = reinterpret_cast<void *>(&crwCoroutineTrampoline);
    for (int i = 3; i <= 8; ++i)
        slots[-i] = nullptr; // rbp, rbx, r12..r15
    impl_->coroSp = static_cast<void *>(slots - 8);
#else
    if (getcontext(&impl_->context) != 0)
        crw_fatal << "getcontext failed";
    impl_->context.uc_stack.ss_sp = stack_.data();
    impl_->context.uc_stack.ss_size = stack_.size();
    impl_->context.uc_link = nullptr;
    makecontext(&impl_->context, &crwCoroutineTrampoline, 0);
#endif
}

void
Coroutine::resume()
{
    crw_assert(!finished_);
    crw_assert(!inside_);
    if (!started_) {
        started_ = true;
        start();
        g_starting = this;
    }
    inside_ = true;
    CRW_ASAN_SWITCH(__sanitizer_start_switch_fiber(
        &impl_->mainFake, stack_.data(), stack_.size()));
#if CRW_FAST_FIBERS
    crwSwapStack(&impl_->mainSp, impl_->coroSp);
#else
    if (swapcontext(&impl_->mainContext, &impl_->context) != 0)
        crw_fatal << "swapcontext into coroutine failed";
#endif
    CRW_ASAN_SWITCH(
        __sanitizer_finish_switch_fiber(impl_->mainFake, nullptr, nullptr));
    if (pending_) {
        auto p = pending_;
        pending_ = nullptr;
        std::rethrow_exception(p);
    }
}

void
Coroutine::yieldToMain()
{
    crw_assert(inside_);
    inside_ = false;
    CRW_ASAN_SWITCH(__sanitizer_start_switch_fiber(
        &impl_->coroFake, impl_->mainBottom, impl_->mainSize));
#if CRW_FAST_FIBERS
    crwSwapStack(&impl_->coroSp, impl_->mainSp);
#else
    if (swapcontext(&impl_->context, &impl_->mainContext) != 0)
        crw_fatal << "swapcontext to main failed";
#endif
    CRW_ASAN_SWITCH(__sanitizer_finish_switch_fiber(
        impl_->coroFake, &impl_->mainBottom, &impl_->mainSize));
    inside_ = true;
}

} // namespace crw
