/**
 * @file
 * OracleStream: a rewindable window over the functional emulator's
 * correct-path instruction stream.
 *
 * The timing model steps the emulator at fetch time. Replay traps refetch
 * correct-path instructions that already executed architecturally, so the
 * stream buffers records until they retire and supports rewinding the
 * read cursor to any still-buffered sequence number.
 *
 * The buffer is a fixed ring (common/ring.hh) sized by the owning core
 * to its window: a record is buffered only while its instruction, or a
 * refetch of it, can still be in flight, so the correct-path part of
 * the window bounds the count. A core keeps one stream for its whole
 * life and reset()s it per run, so runs allocate no buffer.
 */

#ifndef SIMALPHA_CORE_ORACLE_HH
#define SIMALPHA_CORE_ORACLE_HH

#include <optional>

#include "common/ring.hh"
#include "isa/emulator.hh"

namespace simalpha {

class OracleStream
{
  public:
    /** A stream that buffers at most @p capacity records; reset()
     *  starts it on a program. */
    explicit OracleStream(std::size_t capacity);

    /** Restart the stream on @p program, keeping the buffer storage.
     *  With @p start the emulator resumes from restored architectural
     *  state instead of reset, and delivered records carry sequence
     *  numbers continuing from start->seq (which is also the rewind
     *  floor — nothing older is reachable). */
    void reset(const Program &program, const Checkpoint *start = nullptr);

    /** Is another correct-path instruction available? */
    bool exhausted() const;

    /** PC of the next instruction the cursor will deliver. */
    Addr nextPc() const;

    /** Deliver the next correct-path record, stepping the emulator if
     *  the cursor is at the frontier. */
    const ExecutedInst &next();

    /** Rewind the cursor so `seq` is the next record delivered. */
    void rewindTo(InstSeq seq);

    /** Drop buffered records with seq < `seq` (they retired). */
    void retireBefore(InstSeq seq);

    std::size_t bufferedRecords() const { return _buffer.size(); }

    const Emulator &emulator() const { return *_emu; }
    /** Mutable access for state injection (register/memory flips). */
    Emulator &emulator() { return *_emu; }

  private:
    std::optional<Emulator> _emu;       ///< engaged by reset()
    Ring<ExecutedInst> _buffer;         ///< records not yet retired
    std::size_t _cursor = 0;            ///< next index into _buffer
    InstSeq _baseSeq = 0;               ///< seq of _buffer.front()
};

} // namespace simalpha

#endif // SIMALPHA_CORE_ORACLE_HH
