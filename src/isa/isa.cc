#include "isa.hh"

#include <sstream>

namespace simalpha {

const char *
opName(Op op)
{
    switch (op) {
      case Op::Addq: return "addq";
      case Op::Subq: return "subq";
      case Op::Mulq: return "mulq";
      case Op::And: return "and";
      case Op::Bis: return "bis";
      case Op::Xor: return "xor";
      case Op::Sll: return "sll";
      case Op::Srl: return "srl";
      case Op::Cmpeq: return "cmpeq";
      case Op::Cmplt: return "cmplt";
      case Op::Cmple: return "cmple";
      case Op::Lda: return "lda";
      case Op::Cmoveq: return "cmoveq";
      case Op::Cmovne: return "cmovne";
      case Op::Ldq: return "ldq";
      case Op::Stq: return "stq";
      case Op::Ldl: return "ldl";
      case Op::Stl: return "stl";
      case Op::Ldt: return "ldt";
      case Op::Stt: return "stt";
      case Op::Addt: return "addt";
      case Op::Subt: return "subt";
      case Op::Mult: return "mult";
      case Op::Divt: return "divt";
      case Op::Divs: return "divs";
      case Op::Sqrtt: return "sqrtt";
      case Op::Sqrts: return "sqrts";
      case Op::Cpys: return "cpys";
      case Op::Beq: return "beq";
      case Op::Bne: return "bne";
      case Op::Blt: return "blt";
      case Op::Ble: return "ble";
      case Op::Bgt: return "bgt";
      case Op::Bge: return "bge";
      case Op::Br: return "br";
      case Op::Bsr: return "bsr";
      case Op::Jmp: return "jmp";
      case Op::Jsr: return "jsr";
      case Op::Ret: return "ret";
      case Op::Unop: return "unop";
      case Op::Halt: return "halt";
    }
    return "???";
}

namespace {

std::string
regName(RegIndex r)
{
    if (r == kNoReg)
        return "-";
    std::ostringstream os;
    if (isFpRegIndex(r))
        os << "f" << int(r - kNumIntRegs);
    else
        os << "r" << int(r);
    return os.str();
}

} // namespace

std::string
Instruction::disassemble() const
{
    std::ostringstream os;
    os << opName(op);
    if (isNop() || isHalt())
        return os.str();
    os << " ";
    if (isMem()) {
        RegIndex v = isLoad() ? rc : ra;
        os << regName(v) << ", " << imm << "(" << regName(rb) << ")";
    } else if (isCondBranch()) {
        os << regName(ra) << ", @" << target;
    } else if (op == Op::Br) {
        os << "@" << target;
    } else if (op == Op::Bsr) {
        os << regName(ra) << ", @" << target;
    } else if (isIndirect()) {
        os << regName(ra) << ", (" << regName(rb) << ")";
    } else if (op == Op::Lda) {
        os << regName(rc) << ", " << imm << "(" << regName(rb) << ")";
    } else {
        os << regName(ra) << ", " << regName(rb) << ", " << regName(rc);
    }
    return os.str();
}

const Instruction &
Program::fetch(Addr pc) const
{
    static const Instruction unop{};
    std::int64_t idx = indexOf(pc);
    if (idx < 0)
        return unop;
    return text[std::size_t(idx)];
}

} // namespace simalpha
