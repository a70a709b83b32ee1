#include "oracle.hh"

#include "common/logging.hh"

namespace simalpha {

OracleStream::OracleStream(std::size_t capacity) : _buffer(capacity) {}

void
OracleStream::reset(const Program &program, const Checkpoint *start)
{
    if (start)
        _emu.emplace(program, *start);
    else
        _emu.emplace(program);
    _buffer.clear();
    _cursor = 0;
    // The emulator's next record is instruction start->seq, so the
    // empty buffer's base must match for rewindTo()'s arithmetic.
    _baseSeq = start ? start->seq : 0;
}

bool
OracleStream::exhausted() const
{
    return _cursor >= _buffer.size() && _emu->halted();
}

Addr
OracleStream::nextPc() const
{
    if (_cursor < _buffer.size())
        return _buffer[_cursor].pc;
    return _emu->pc();
}

const ExecutedInst &
OracleStream::next()
{
    if (_cursor >= _buffer.size()) {
        sim_assert(!_emu->halted());
        _buffer.push_back(_emu->step());
    }
    return _buffer[_cursor++];
}

void
OracleStream::rewindTo(InstSeq seq)
{
    sim_assert(seq >= _baseSeq);
    std::size_t idx = std::size_t(seq - _baseSeq);
    sim_assert(idx <= _buffer.size());
    _cursor = idx;
}

void
OracleStream::retireBefore(InstSeq seq)
{
    while (!_buffer.empty() && _baseSeq < seq) {
        sim_assert(_cursor > 0);
        _buffer.pop_front();
        _cursor--;
        _baseSeq++;
    }
}

} // namespace simalpha
