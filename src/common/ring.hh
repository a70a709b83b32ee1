/**
 * @file
 * Ring: a fixed-capacity double-ended queue for the cores' instruction
 * windows and the oracle's record buffer.
 *
 * The storage is allocated by reset() and never grows: a push onto a
 * full ring is a modeling bug (sim_assert), not a reallocation. A core
 * sizes each ring from its own bounds on its first run and reuses the
 * storage for every later run, so a run allocates nothing per
 * instruction.
 *
 * Address contract: an element lives in one slot from the push that
 * creates it to the pop that removes it, so a reference or pointer to
 * it stays valid across every other push and pop, at either end. That
 * is the guarantee std::deque gives for operations at its ends. Unlike
 * a deque, a popped element's slot is reused by a later push, so a
 * pointer kept past its element's removal reads a different, live
 * element instead of freed memory: a holder must drop the pointer when
 * its element leaves, or check (for example by sequence number) that
 * the element is still resident before reading through it. Iterators
 * are positions counted from the front, so pop_front() invalidates
 * them.
 */

#ifndef SIMALPHA_COMMON_RING_HH
#define SIMALPHA_COMMON_RING_HH

#include <compare>
#include <cstddef>
#include <iterator>
#include <memory>
#include <type_traits>

#include "common/logging.hh"

namespace simalpha {

template <class T>
class Ring
{
    template <bool Const>
    class Iter;

  public:
    using value_type = T;
    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    Ring() = default;
    explicit Ring(std::size_t capacity) { reset(capacity); }

    /** Empty the ring and bound it at @p capacity elements. Allocates
     *  only if the current storage is smaller than that. */
    void
    reset(std::size_t capacity)
    {
        std::size_t slots = 1;
        while (slots < capacity)
            slots <<= 1;
        if (!_slots || slots > _mask + 1) {
            _slots = std::make_unique<T[]>(slots);
            _mask = slots - 1;
        }
        _capacity = capacity;
        clear();
    }

    std::size_t size() const { return _size; }
    std::size_t capacity() const { return _capacity; }
    bool empty() const { return _size == 0; }

    /** The @p i-th element from the front. */
    T &operator[](std::size_t i) { return _slots[(_head + i) & _mask]; }
    const T &
    operator[](std::size_t i) const
    {
        return _slots[(_head + i) & _mask];
    }
    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }
    T &back() { return (*this)[_size - 1]; }
    const T &back() const { return (*this)[_size - 1]; }

    /** Append a value-initialised element and return it, for callers
     *  that build the element in place. */
    T &
    emplace_back()
    {
        T &slot = grow();
        slot = T{};
        return slot;
    }

    void push_back(const T &value) { grow() = value; }

    void
    pop_front()
    {
        sim_assert(_size > 0);
        _head = (_head + 1) & _mask;
        _size--;
    }

    void
    pop_back()
    {
        sim_assert(_size > 0);
        _size--;
    }

    void
    clear()
    {
        _head = 0;
        _size = 0;
    }

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, _size}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, _size}; }

  private:
    /** The slot for a new back element (overflow is a bug). */
    T &
    grow()
    {
        sim_assert(_size < _capacity);
        return _slots[(_head + _size++) & _mask];
    }

    /** A random-access position counted from the front. */
    template <bool Const>
    class Iter
    {
        using RingPtr = std::conditional_t<Const, const Ring *, Ring *>;

      public:
        using iterator_category = std::random_access_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = std::conditional_t<Const, const T *, T *>;
        using reference = std::conditional_t<Const, const T &, T &>;

        Iter() = default;
        Iter(RingPtr ring, std::size_t pos) : _ring(ring), _pos(pos) {}

        reference operator*() const { return (*_ring)[_pos]; }
        pointer operator->() const { return &(*_ring)[_pos]; }
        reference
        operator[](difference_type n) const
        {
            return (*_ring)[_pos + std::size_t(n)];
        }

        Iter &
        operator++()
        {
            ++_pos;
            return *this;
        }
        Iter
        operator++(int)
        {
            Iter old = *this;
            ++_pos;
            return old;
        }
        Iter &
        operator--()
        {
            --_pos;
            return *this;
        }
        Iter
        operator--(int)
        {
            Iter old = *this;
            --_pos;
            return old;
        }
        Iter &
        operator+=(difference_type n)
        {
            _pos += std::size_t(n);
            return *this;
        }
        Iter &
        operator-=(difference_type n)
        {
            _pos -= std::size_t(n);
            return *this;
        }
        friend Iter
        operator+(Iter it, difference_type n)
        {
            return it += n;
        }
        friend Iter
        operator+(difference_type n, Iter it)
        {
            return it += n;
        }
        friend Iter
        operator-(Iter it, difference_type n)
        {
            return it -= n;
        }
        friend difference_type
        operator-(const Iter &a, const Iter &b)
        {
            return difference_type(a._pos) - difference_type(b._pos);
        }
        friend bool
        operator==(const Iter &a, const Iter &b)
        {
            return a._pos == b._pos;
        }
        friend std::strong_ordering
        operator<=>(const Iter &a, const Iter &b)
        {
            return a._pos <=> b._pos;
        }

      private:
        RingPtr _ring = nullptr;
        std::size_t _pos = 0;
    };

    std::unique_ptr<T[]> _slots;
    std::size_t _mask = 0;      ///< slot count - 1 (a power of two)
    std::size_t _capacity = 0;  ///< element bound (<= slot count)
    std::size_t _head = 0;      ///< slot of the front element
    std::size_t _size = 0;
};

} // namespace simalpha

#endif // SIMALPHA_COMMON_RING_HH
