#include "msm/batch_affine.hh"

#include <atomic>

namespace gzkp::msm {

namespace {

// Atomics: engines resolve options from runtime worker threads while
// tests pin the defaults between runs. Auto means "not pinned".
std::atomic<Accumulator> g_accumulator{Accumulator::Auto};
std::atomic<GlvMode> g_glv{GlvMode::Auto};

} // namespace

Accumulator
defaultAccumulator()
{
    Accumulator a = g_accumulator.load(std::memory_order_relaxed);
    return a == Accumulator::Auto ? Accumulator::BatchAffine : a;
}

void
setDefaultAccumulator(Accumulator a)
{
    g_accumulator.store(a, std::memory_order_relaxed);
}

GlvMode
defaultGlvMode()
{
    GlvMode m = g_glv.load(std::memory_order_relaxed);
    return m == GlvMode::Auto ? GlvMode::On : m;
}

void
setDefaultGlvMode(GlvMode m)
{
    g_glv.store(m, std::memory_order_relaxed);
}

} // namespace gzkp::msm
