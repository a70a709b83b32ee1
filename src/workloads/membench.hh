/**
 * @file
 * The memory-calibration workloads of Section 4.2: the stream kernels
 * (copy, scale, add, triad) and an lmbench-style loaded-latency walker.
 * Together with M-M these calibrate the DRAM parameters (RAS, CAS,
 * precharge, controller latency, page policy).
 */

#ifndef SIMALPHA_WORKLOADS_MEMBENCH_HH
#define SIMALPHA_WORKLOADS_MEMBENCH_HH

#include <vector>

#include "isa/isa.hh"

namespace simalpha {
namespace workloads {

enum class StreamKernel { Copy, Scale, Add, Triad };

/** Every stream kernel, in the order streamSuite() builds them. */
constexpr StreamKernel kStreamKernels[] = {
    StreamKernel::Copy, StreamKernel::Scale, StreamKernel::Add,
    StreamKernel::Triad};

/** The kernel's program name ("stream-copy", ...). */
const char *streamKernelName(StreamKernel k);

/**
 * One stream kernel over arrays of `elems` 8-byte elements.
 * copy:  c[i] = a[i]
 * scale: b[i] = s * c[i]
 * add:   c[i] = a[i] + b[i]
 * triad: a[i] = b[i] + s * c[i]
 */
Program streamBenchmark(StreamKernel kernel, int elems = 262144,
                        int repeats = 2);

/** All four stream kernels. */
std::vector<Program> streamSuite(int elems = 262144, int repeats = 2);

/**
 * lmbench-style latency walk: a shuffled pointer chase over `kb`
 * kilobytes with the given stride, measuring mean load-to-load latency
 * at one level of the hierarchy.
 */
Program lmbenchLatency(int kb, int stride = 64,
                       std::int64_t accesses = 60000);

} // namespace workloads
} // namespace simalpha

#endif // SIMALPHA_WORKLOADS_MEMBENCH_HH
