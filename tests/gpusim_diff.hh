#ifndef EDGERT_TESTS_GPUSIM_DIFF_HH
#define EDGERT_TESTS_GPUSIM_DIFF_HH

/**
 * @file
 * GpuSim differential test: a simulator program as plain data, and
 * everything a run of it exposes, as bit patterns. gpusim_diff_runner.cc
 * is compiled twice: into runProduct against the product simulator,
 * and into runReference against a second build of sim.cc made with
 * EDGERT_GPUSIM_REFERENCE (no contended-fill memo). Neither this header
 * nor the outcome names a simulator type, so one test links both.
 */

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/kernel.hh"

namespace edgert::test {

/** One simulator call of a program phase, in call order. */
struct DiffOp
{
    enum class Kind {
        kLaunch,     //!< launchKernels(lists[list])
        kH2D,        //!< memcpyH2D
        kD2H,        //!< memcpyD2H
        kHostDelay,  //!< hostDelay(seconds)
        kDelayUntil, //!< delayUntil(now + seconds)
        kRecord,     //!< recordEvent: the program's next event
        kWait,       //!< waitEvent(event), an event recorded earlier
        kPause,      //!< runBefore(now + seconds)
        kRunUntil,   //!< runUntilEvent(event)
    };
    Kind kind = Kind::kLaunch;
    int stream = 0;
    int list = 0;
    std::uint64_t bytes = 0;
    int transfers = 1;
    bool pinned = false;
    double seconds = 0.0;
    int event = 0; //!< program event index (in recording order)
};

/** A kernel list: its stream and its kernels, by index into the
 *  phase's descriptors. */
struct DiffList
{
    int stream = 0;
    std::vector<int> kernels;
};

/**
 * Descriptors, lists and calls that live together. A runner copies
 * the descriptors into storage of its own, resolves the lists, makes
 * the calls and drains the simulator with run(); then it frees the
 * lists and the descriptors, so the next phase's may take over their
 * memory.
 */
struct DiffPhase
{
    std::vector<gpusim::KernelDesc> descs;
    std::vector<DiffList> lists;
    std::vector<DiffOp> ops;
    bool reset_stats_after = false;
};

/** A whole program: one simulator, its streams and its phases. */
struct DiffProgram
{
    bool agx = false;
    std::vector<double> weights; //!< one created stream per weight
    int trace_mode = 0;          //!< 0 full, 1 sampled, 2 off
    int sample_every = 16;
    double jitter = 0.0;
    std::uint64_t jitter_seed = 0;
    double profiling_us = 0.0;
    std::vector<DiffPhase> phases;
};

/** One trace record, doubles as bits. */
struct DiffRecord
{
    int kind = 0;
    std::string name;
    int stream = 0;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::uint64_t bytes = 0;
    std::string kernel_name;
    std::array<std::uint64_t, 16> kernel{}; //!< every other KernelDesc field

    bool operator==(const DiffRecord &) const = default;
};

/** Everything a run exposes, doubles as bits. The fill-memo counters
 *  are reported for coverage and never compared. */
struct DiffOutcome
{
    std::vector<DiffRecord> trace;
    std::vector<std::uint64_t> events; //!< every event's time
    std::vector<std::uint64_t> util;   //!< UtilStats after each phase
    std::vector<std::uint64_t> sim;    //!< SimStats but memo and arena
    std::array<std::uint64_t, 4> histograms{}; //!< stall, waste: count, sum

    std::uint64_t fill_memo_hits = 0;
    std::uint64_t fill_memo_clears = 0;
};

DiffOutcome runProduct(const DiffProgram &program);
DiffOutcome runReference(const DiffProgram &program);

} // namespace edgert::test

#endif // EDGERT_TESTS_GPUSIM_DIFF_HH
