#ifndef EDGERT_GPUSIM_KERNEL_HH
#define EDGERT_GPUSIM_KERNEL_HH

/**
 * @file
 * Descriptor of one simulated CUDA kernel launch.
 *
 * A KernelDesc carries everything the timing model and the profiler
 * need: launch geometry, arithmetic and memory work, occupancy, and
 * the per-launch instruction/ld-st counters the BSP performance
 * model (paper §VI-B) consumes. Tactic generators in the core
 * library produce these from fused layer shapes.
 */

#include <cstdint>
#include <string>

namespace edgert::gpusim {

/**
 * One kernel launch: name, geometry, and modeled work.
 */
struct KernelDesc
{
    std::string name;

    // --- Launch geometry ---
    std::int64_t grid_blocks = 1;
    std::int64_t block_threads = 128;
    std::int64_t max_blocks_per_sm = 2; //!< occupancy limit

    // --- Work ---
    std::int64_t flops = 0;       //!< arithmetic work (2*MACs)
    std::int64_t dram_bytes = 0;  //!< post-cache DRAM traffic
    bool tensor_core = false;     //!< uses HMMA tensor-core path
    double efficiency = 0.5;      //!< tactic tile/pipe efficiency

    /**
     * Per-block L2 working-set footprint (KB). When the concurrent
     * blocks of a launch overflow the shared 512 KB L2, the excess
     * respills to DRAM (DeviceSpec::l2_spill_coeff) — the mechanism
     * that lets the same kernel run slower on the 8-SM AGX than on
     * the 6-SM NX (paper Table XI).
     */
    double tile_kb = 32.0;

    /**
     * Strided / scattered global-access pattern (depthwise conv,
     * radix sort, LRN): each access uses only ~32 bytes of the DRAM
     * burst, so platforms with wider buses waste a larger fraction
     * of their bandwidth — another way the same kernel runs slower
     * on AGX (256-bit bus) than NX (128-bit).
     */
    bool strided_access = false;

    // --- Profiler counters (aggregate over all threads) ---
    std::int64_t instructions = 0;
    std::int64_t ldg = 0;      //!< global loads
    std::int64_t stg = 0;      //!< global stores
    std::int64_t lds = 0;      //!< shared loads
    std::int64_t sts = 0;      //!< shared stores
    std::int64_t l1_hits = 0;
    std::int64_t l2_hits = 0;
};

} // namespace edgert::gpusim

#endif // EDGERT_GPUSIM_KERNEL_HH
