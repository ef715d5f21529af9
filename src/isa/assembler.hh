/**
 * @file
 * Program container and label-resolving assembler for the mini-ISA.
 *
 * Sync-algorithm builders (src/sync) and the workload generator
 * (src/workload) use the Assembler's fluent emitters to encode the
 * paper's Figures 8-19 and the benchmark skeletons.
 */

#ifndef CBSIM_ISA_ASSEMBLER_HH
#define CBSIM_ISA_ASSEMBLER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "isa/instruction.hh"
#include "sim/log.hh"

namespace cbsim {

/**
 * An immutable, fully-resolved instruction sequence for one thread.
 *
 * The code lives in shared immutable storage, so copying a Program
 * (Chip::setProgram takes one by value) bumps a reference count instead
 * of duplicating thousands of instructions; every copy reads the same
 * instructions at the same addresses.
 */
class Program
{
  public:
    Program() = default;
    explicit Program(std::vector<Instruction> code)
        : body_(std::make_shared<const std::vector<Instruction>>(
              std::move(code))),
          code_(body_->data()), size_(body_->size())
    {
    }

    // Copy-only: a copy is a reference-count bump, and a moved-from
    // Program would keep code_ pointing at storage it no longer owns.
    Program(const Program&) = default;
    Program& operator=(const Program&) = default;

    const Instruction&
    at(std::uint64_t pc) const
    {
        CBSIM_ASSERT(pc < size_, "pc out of range");
        return code_[pc];
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Disassembly listing (for debugging and docs). */
    std::string listing() const;

  private:
    std::shared_ptr<const std::vector<Instruction>> body_;
    // body_'s storage, cached so Core::step's fetch is one load away
    // from the Program rather than two.
    const Instruction* code_ = nullptr;
    std::size_t size_ = 0;
};

/**
 * A branch target within one Assembler. Made by Assembler::newLabel,
 * placed by Assembler::bind, and resolved to an instruction index by
 * Assembler::assemble.
 */
struct Label
{
    std::uint32_t id = 0;
};

/**
 * Builder that emits instructions and resolves label handles into
 * branch-target immediates at assemble() time.
 *
 * Every emitter returns a reference to the emitted instruction so call
 * sites can adjust instrumentation flags, e.g.:
 * @code
 *   a.ldThrough(r1, rL).spin = true;  // back-off applies to this load
 * @endcode
 */
class Assembler
{
  public:
    /** A fresh, unbound label. */
    Label newLabel();

    /**
     * Bind @p l to the next emitted instruction's index. Binding a
     * label twice is fatal.
     */
    void bind(Label l);

    // --- ALU / control -------------------------------------------------
    Instruction& movImm(Reg rd, std::uint64_t imm);
    Instruction& mov(Reg rd, Reg rs);
    Instruction& add(Reg rd, Reg rs1, Reg rs2);
    Instruction& addImm(Reg rd, Reg rs1, std::uint64_t imm);
    Instruction& sub(Reg rd, Reg rs1, Reg rs2);
    Instruction& notOp(Reg rd, Reg rs1);
    Instruction& beq(Reg rs1, Reg rs2, Label target);
    Instruction& bne(Reg rs1, Reg rs2, Label target);
    Instruction& blt(Reg rs1, Reg rs2, Label target);
    Instruction& beqz(Reg rs1, Label target);
    Instruction& bnez(Reg rs1, Label target);
    Instruction& jump(Label target);
    Instruction& workImm(std::uint64_t cycles);
    Instruction& workReg(Reg cycles_reg);
    Instruction& recordStart(SyncKind kind);
    Instruction& recordEnd(SyncKind kind);
    Instruction& done();

    // --- Memory ---------------------------------------------------------
    // Offsets outside the int32_t range of Instruction::offset are fatal.

    /** DRF load: rd = mem[base + off]. */
    Instruction& ld(Reg rd, Reg base, std::int64_t off = 0);
    /** DRF store: mem[base + off] = rs. */
    Instruction& st(Reg rs, Reg base, std::int64_t off = 0);
    /** DRF store of an immediate. */
    Instruction& stImm(std::uint64_t value, Reg base, std::int64_t off = 0);

    /** Racy guard load (never blocks); sync-marked by default. */
    Instruction& ldThrough(Reg rd, Reg base, std::int64_t off = 0);
    /** Callback load (blocks when empty); sync-marked by default. */
    Instruction& ldCb(Reg rd, Reg base, std::int64_t off = 0);
    /** Racy store waking all callbacks (st_through / st_cbA). */
    Instruction& stThrough(Reg rs, Reg base, std::int64_t off = 0);
    Instruction& stThroughImm(std::uint64_t v, Reg base,
                              std::int64_t off = 0);
    /** Racy store waking one callback (st_cb1). */
    Instruction& stCb1Imm(std::uint64_t v, Reg base, std::int64_t off = 0);
    /** Racy store waking no callback (st_cb0). */
    Instruction& stCb0Imm(std::uint64_t v, Reg base, std::int64_t off = 0);

    /**
     * Atomic RMW: rd = old value of mem[base+off].
     * @param func     the RMW function
     * @param operand  swap/add/set value (immediate)
     * @param compare  T&S "free" value
     * @param ld_cb    the read half is a callback read
     * @param wake     the write half's wake policy
     */
    Instruction& atomic(Reg rd, Reg base, std::int64_t off,
                        AtomicFunc func, std::uint64_t operand,
                        std::uint64_t compare, bool ld_cb,
                        WakePolicy wake);

    /** Atomic whose operand comes from a register (CLH fetch&store). */
    Instruction& atomicReg(Reg rd, Reg base, std::int64_t off,
                           AtomicFunc func, Reg operand_reg,
                           std::uint64_t compare, bool ld_cb,
                           WakePolicy wake);

    /** Fences (paper §3.1); encoded as Work-free special opcodes. */
    Instruction& selfInvl();
    Instruction& selfDown();

    /** Number of instructions emitted so far. */
    std::size_t size() const { return code_.size(); }

    /**
     * Resolve labels and produce the Program; fatal if a branch targets
     * a label that was never bound.
     */
    Program assemble();

  private:
    Instruction& emit(Instruction ins);
    Instruction& branch(Opcode op, Reg rs1, Reg rs2, Label target);

    /** Marks a label in labels_ that is not yet bound. */
    static constexpr std::uint64_t kUnbound = ~std::uint64_t{0};

    std::vector<Instruction> code_;
    /** Per label id: the index it is bound to, or kUnbound. */
    std::vector<std::uint64_t> labels_;
    /** Branches whose imm holds a label id until assemble(). */
    std::vector<std::size_t> fixups_;
};

} // namespace cbsim

#endif // CBSIM_ISA_ASSEMBLER_HH
