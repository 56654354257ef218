#ifndef EDGERT_TESTS_KERNEL_LAUNCHER_HH
#define EDGERT_TESTS_KERNEL_LAUNCHER_HH

/**
 * @file
 * Test helper: launch loose kernel descriptors on a GpuSim.
 */

#include <deque>

#include "gpusim/kernel.hh"
#include "gpusim/sim.hh"

namespace edgert::test {

/**
 * Launches one descriptor at a time, the way an ExecutionContext
 * launches an engine: each launch resolves a one-kernel list for its
 * stream. The launcher keeps a copy of every descriptor and every
 * list it launched, so both outlive the launches; declare it before
 * the simulators it feeds.
 */
class KernelLauncher
{
  public:
    void
    operator()(gpusim::GpuSim &sim, int stream,
               const gpusim::KernelDesc &kernel)
    {
        const gpusim::KernelDesc *desc = &descs_.emplace_back(kernel);
        sim.launchKernels(
            lists_.emplace_back(sim.resolveKernels(stream, {&desc, 1})));
    }

  private:
    std::deque<gpusim::KernelDesc> descs_;
    std::deque<gpusim::KernelList> lists_;
};

} // namespace edgert::test

#endif // EDGERT_TESTS_KERNEL_LAUNCHER_HH
