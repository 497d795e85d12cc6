#include "sim/fiber.hh"

#include <cstring>

#ifdef BIGTINY_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

#include "common/log.hh"

#ifndef BIGTINY_FIBER_UCONTEXT
extern "C" void bigtinyFiberSwap(void **save_sp, void *load_sp);
extern "C" void bigtinyFiberTramp();
#endif
extern "C" void bigtinyFiberEntry(void *f);

namespace bigtiny::sim
{

namespace
{

Fiber *&
currentFiberRef()
{
    static thread_local Fiber *cur = nullptr;
    return cur;
}

#ifdef BIGTINY_ASAN_FIBERS
// The fiber a switch is leaving, so the destination side of the swap
// can close the ASan annotation with the right saved state and record
// the departed stack's bounds (this is how the primary fiber's bounds,
// which we never allocated ourselves, are learned).
thread_local Fiber *switchingFrom = nullptr;
#endif

} // namespace

void
fiberEntryThunk(Fiber *f)
{
    f->main();
}

Fiber::Fiber() // primary
{
#ifdef BIGTINY_FIBER_UCONTEXT
    // Context is captured lazily by the first swap.
#endif
}

Fiber::Fiber(std::function<void()> fn, size_t stack_bytes)
    : fn(std::move(fn)), stackBytes(stack_bytes)
{
    panic_if(stackBytes < 4096, "fiber stack too small");
    createStack();
}

Fiber::~Fiber() = default;

Fiber *
Fiber::primary()
{
    // One primary per host thread: a parallel sweep runs a complete
    // simulation on each pool thread, and every switch back to "the
    // scheduler" must land on the calling thread's native stack, not
    // on whichever thread first touched a process-wide singleton.
    static thread_local Fiber primary_fiber;
    return &primary_fiber;
}

Fiber *
Fiber::current()
{
    Fiber *&cur = currentFiberRef();
    if (!cur)
        cur = primary();
    return cur;
}

void
Fiber::main()
{
#ifdef BIGTINY_ASAN_FIBERS
    // First activation: close the switch annotation (this fiber was
    // never suspended, so there is no fake stack to restore) and
    // record the bounds of the stack we came from.
    __sanitizer_finish_switch_fiber(nullptr, &switchingFrom->asanBottom,
                                    &switchingFrom->asanSize);
#endif
    fn();
    _finished = true;
    Fiber *next = onFinish ? onFinish : primary();
    next->run();
    panic("resumed a finished fiber");
}

#ifndef BIGTINY_FIBER_UCONTEXT

void
Fiber::createStack()
{
    stack = std::make_unique_for_overwrite<uint8_t[]>(stackBytes);
#ifdef BIGTINY_ASAN_FIBERS
    asanBottom = stack.get();
    asanSize = stackBytes;
#endif
    // Lay the stack out so that the final `ret` in bigtinyFiberSwap
    // lands in bigtinyFiberTramp with this Fiber in the %r12 slot. The
    // return-address slot must be 16-byte aligned so the trampoline
    // observes the standard post-`call` alignment (see fiber .S file).
    uintptr_t top =
        reinterpret_cast<uintptr_t>(stack.get()) + stackBytes;
    top &= ~static_cast<uintptr_t>(15);
    // Place the retaddr slot at top-8 (top%16==8): after the final
    // `ret` of the swap, the trampoline starts with rsp 16-aligned,
    // so its `call` leaves the C entry with the standard rsp%16==8.
    top -= 24;
    auto *slots = reinterpret_cast<uint64_t *>(top);
    // slots[0] is the retaddr slot.
    slots[0] = reinterpret_cast<uint64_t>(&bigtinyFiberTramp);
    slots[-1] = 0;                                  // rbp
    slots[-2] = 0;                                  // rbx
    slots[-3] = reinterpret_cast<uint64_t>(this);   // r12 = Fiber*
    slots[-4] = 0;                                  // r13
    slots[-5] = 0;                                  // r14
    slots[-6] = 0;                                  // r15
    sp = slots - 6;
}

void
Fiber::run()
{
    panic_if(_finished, "Fiber::run() on finished fiber");
    Fiber *prev = current();
    if (prev == this)
        return;
    currentFiberRef() = this;
    started = true;
#ifdef BIGTINY_ASAN_FIBERS
    switchingFrom = prev;
    // A finished fiber never resumes: passing nullptr lets ASan
    // release its fake-stack state instead of saving it.
    __sanitizer_start_switch_fiber(
        prev->_finished ? nullptr : &prev->asanFakeStack, asanBottom,
        asanSize);
#endif
    bigtinyFiberSwap(&prev->sp, this->sp);
#ifdef BIGTINY_ASAN_FIBERS
    // Someone switched back to prev; finish their annotation.
    __sanitizer_finish_switch_fiber(prev->asanFakeStack,
                                    &switchingFrom->asanBottom,
                                    &switchingFrom->asanSize);
#endif
}

#else // BIGTINY_FIBER_UCONTEXT

void
Fiber::createStack()
{
    stack = std::make_unique_for_overwrite<uint8_t[]>(stackBytes);
#ifdef BIGTINY_ASAN_FIBERS
    asanBottom = stack.get();
    asanSize = stackBytes;
#endif
    getcontext(&ctx);
    ctx.uc_stack.ss_sp = stack.get();
    ctx.uc_stack.ss_size = stackBytes;
    ctx.uc_link = nullptr;
    makecontext(&ctx, reinterpret_cast<void (*)()>(&bigtinyFiberEntry),
                1, this);
}

void
Fiber::run()
{
    panic_if(_finished, "Fiber::run() on finished fiber");
    Fiber *prev = current();
    if (prev == this)
        return;
    currentFiberRef() = this;
    started = true;
#ifdef BIGTINY_ASAN_FIBERS
    switchingFrom = prev;
    __sanitizer_start_switch_fiber(
        prev->_finished ? nullptr : &prev->asanFakeStack, asanBottom,
        asanSize);
#endif
    swapcontext(&prev->ctx, &this->ctx);
#ifdef BIGTINY_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(prev->asanFakeStack,
                                    &switchingFrom->asanBottom,
                                    &switchingFrom->asanSize);
#endif
}

#endif

} // namespace bigtiny::sim

extern "C" void
bigtinyFiberEntry(void *f)
{
    bigtiny::sim::fiberEntryThunk(static_cast<bigtiny::sim::Fiber *>(f));
}
