// Fundamental scalar types shared by every module of the PiPoMonitor
// reproduction: physical addresses, simulation ticks, core identifiers and
// the cache-line geometry constants from Table II of the paper.
#pragma once

#include <cstdint>
#include <cstddef>

namespace pipo {

/// Physical byte address. The simulated machine uses a 48-bit physical
/// address space (the usual x86-64 configuration); we store it in 64 bits.
using Addr = std::uint64_t;

/// Simulation time in clock cycles of the 2.0 GHz core/uncore clock.
/// The paper's latencies (Table II) are all expressed in this clock.
using Tick = std::uint64_t;

/// Sentinel for "no tick": later than every tick a run can reach (it is
/// also the default run limit), so taking the minimum with it is a no-op.
inline constexpr Tick kNeverTick = ~Tick{0};

/// Identifies one of the processor cores (0..num_cores-1).
using CoreId = std::uint32_t;

/// Sentinel for "no core" (e.g. a hardware-prefetch requester).
inline constexpr CoreId kInvalidCore = static_cast<CoreId>(-1);

/// Cache line size. Fixed at 64 bytes, the value assumed throughout the
/// paper (and by every commercial LLC the attack literature targets).
inline constexpr unsigned kLineSizeBytes = 64;
inline constexpr unsigned kLineShift = 6;  // log2(kLineSizeBytes)

/// A line address: byte address with the block offset stripped
/// (i.e. byte_addr >> kLineShift). Using a distinct alias makes interfaces
/// self-documenting; the type system does not enforce the distinction.
using LineAddr = std::uint64_t;

/// Converts a byte address to the address of the line containing it.
constexpr LineAddr line_of(Addr byte_addr) { return byte_addr >> kLineShift; }

/// Converts a line address back to the byte address of its first byte.
constexpr Addr byte_of(LineAddr line) { return line << kLineShift; }

/// Align a byte address down to its line boundary.
constexpr Addr line_align(Addr byte_addr) {
  return byte_addr & ~static_cast<Addr>(kLineSizeBytes - 1);
}

/// Kind of memory access issued by a core.
enum class AccessType : std::uint8_t {
  kLoad,        ///< data read
  kStore,       ///< data write (requires exclusive ownership under MESI)
  kInstFetch,   ///< instruction fetch (read-only, goes through L1I)
};

/// Returns true for access types that only need a shared copy.
constexpr bool is_read(AccessType t) { return t != AccessType::kStore; }

}  // namespace pipo
