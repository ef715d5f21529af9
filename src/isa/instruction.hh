/**
 * @file
 * The synchronization mini-ISA.
 *
 * Cores execute programs in a small RISC-flavoured ISA containing exactly
 * the racy-access instructions of the paper's Table 1 (ld_through, ld_cb,
 * st_through/st_cbA, st_cb1, st_cb0, and atomics composed as
 * {ld|ld_cb}&{st|st_cb0|st_cb1|st_cbA}), the two fences (self_invl,
 * self_down), ordinary DRF loads/stores, and enough ALU/branch/work
 * support to encode the paper's Figures 8-19 verbatim.
 */

#ifndef CBSIM_ISA_INSTRUCTION_HH
#define CBSIM_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>

#include "coherence/mem_request.hh"
#include "noc/message.hh"
#include "sim/types.hh"

namespace cbsim {

/** Architectural register index; each thread has 16 registers. */
using Reg = std::uint8_t;
inline constexpr unsigned numRegs = 16;

/** Synchronization phases instrumented for latency statistics. */
enum class SyncKind : std::uint8_t
{
    None,
    Acquire,  ///< lock acquire (start of acq -> entry to CS)
    Release,  ///< lock release
    Barrier,  ///< barrier arrival -> exit
    Wait,     ///< the wait side of signal/wait
    Signal,   ///< the signal side of signal/wait
    NumKinds
};

const char* syncKindName(SyncKind k);

/** Opcodes of the mini-ISA. */
enum class Opcode : std::uint8_t
{
    // ALU and control
    MovImm,  ///< rd = imm
    Mov,     ///< rd = rs1
    Add,     ///< rd = rs1 + rs2
    AddImm,  ///< rd = rs1 + imm
    Sub,     ///< rd = rs1 - rs2
    Not,     ///< rd = !rs1 (logical: sense-reversal flips 0/1)
    Beq,     ///< if (rs1 == rs2) goto imm
    Bne,     ///< if (rs1 != rs2) goto imm
    Blt,     ///< if (rs1 < rs2) goto imm (unsigned)
    Beqz,    ///< if (rs1 == 0) goto imm
    Bnez,    ///< if (rs1 != 0) goto imm
    Jump,    ///< goto imm
    Work,    ///< consume rs1-register (or imm) cycles of local compute
    Record,  ///< statistics marker: start/end of a SyncKind region
    SelfInvl, ///< self-invalidation fence (acquire side)
    SelfDown, ///< self-downgrade fence (release side)
    Done,    ///< thread terminates

    // Memory. Effective address = regs[addrReg] + offset.
    Ld,        ///< DRF load:  rd = mem[ea]
    St,        ///< DRF store: mem[ea] = rs1 (or imm if useImm)
    LdThrough, ///< racy load, never blocks (guard, §3.3)
    LdCb,      ///< racy load, blocks in the callback directory if empty
    StThrough, ///< racy store, wakes all callbacks (st_cbA)
    StCb1,     ///< racy store, wakes one callback
    StCb0,     ///< racy store, wakes none
    Atomic,    ///< RMW at the LLC; see func/wake/ldCb fields
};

/** Mnemonic of @p op (docs/ISA.md names); "?" for invalid values. */
const char* opcodeName(Opcode op);

/**
 * True if the opcode issues a memory request. Inline: consulted once
 * per executed instruction in the core's dispatch loop.
 */
inline bool
isMemory(Opcode op)
{
    switch (op) {
      case Opcode::Ld:
      case Opcode::St:
      case Opcode::LdThrough:
      case Opcode::LdCb:
      case Opcode::StThrough:
      case Opcode::StCb1:
      case Opcode::StCb0:
      case Opcode::Atomic:
        return true;
      default:
        return false;
    }
}

/**
 * One decoded instruction. A flat POD keeps the interpreter simple; not
 * every field is meaningful for every opcode. The fields are packed into
 * 32 bytes (the 64-bit immediates first, flags as 1-bit fields) so two
 * instructions share a cache line: programs run to thousands of mostly
 * straight-line instructions per thread.
 */
struct Instruction
{
    std::uint64_t imm = 0;     ///< immediate / resolved branch target / cycles
    std::uint64_t compare = 0; ///< atomic T&S "free" value

    /**
     * Memory addressing: ea = regs[addrReg] + offset. The emitters take
     * 64-bit offsets and reject any outside the int32_t range.
     */
    std::int32_t offset = 0;

    Opcode op = Opcode::Done;
    Reg rd = 0;   ///< destination register
    Reg rs1 = 0;  ///< first source
    Reg rs2 = 0;  ///< second source
    Reg addrReg = 0;

    // Atomic payload.
    AtomicFunc func = AtomicFunc::None;
    WakePolicy wake = WakePolicy::None;

    // Instrumentation.
    SyncKind record = SyncKind::None;

    bool useImm : 1 = false;      ///< store value / atomic operand is imm
    bool ldCb : 1 = false;        ///< atomic's read half is a callback read
    bool sync : 1 = false;        ///< LLC access attribution
    bool spin : 1 = false;        ///< back-off applies to re-issues
    bool recordStart : 1 = false; ///< Record marks a region's start

    std::string toString() const;
};

static_assert(sizeof(Instruction) == 32,
              "Instruction must stay 32 bytes: two per cache line");

} // namespace cbsim

#endif // CBSIM_ISA_INSTRUCTION_HH
