/**
 * @file
 * Ring: the FIFO behind the per-cycle queues (fetched groups, the
 * speculative store buffer, pending B-to-A feedback). One array whose
 * length is a power of two, indexed from a head cursor through a mask
 * kept beside it, so an index is an add and an and. A push builds its
 * element in the slot it will occupy (emplace_back) and never
 * allocates once the array is as long as the queue has ever been. A
 * full push doubles the array; bounded users reserve their bound up
 * front and never grow.
 */

#ifndef FF_COMMON_RING_HH
#define FF_COMMON_RING_HH

#include <bit>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace ff
{

/**
 * Growable FIFO with pops at both ends; index 0 is the oldest. @p T
 * is trivially destructible, so a slot is reused by building over it.
 */
template <typename T>
class Ring
{
    static_assert(std::is_trivially_destructible_v<T>,
                  "Ring builds over its slots without destroying them");

  public:
    /** @param capacity elements held before the first growth */
    explicit Ring(std::size_t capacity = 0)
        : _buf(capacity == 0 ? 0 : std::bit_ceil(capacity)),
          _mask(_buf.size() - 1)
    {
    }

    /** True if the ring holds no element. */
    bool empty() const { return _size == 0; }
    /** Elements held. */
    std::size_t size() const { return _size; }

    /** Element @p i, counted from the oldest. */
    const T &
    operator[](std::size_t i) const
    {
        return _buf[(_head + i) & _mask];
    }
    /** The oldest element; the ring must not be empty. */
    const T &front() const { return (*this)[0]; }
    /** The youngest element; the ring must not be empty. */
    const T &back() const { return (*this)[_size - 1]; }

    /**
     * Appends a youngest element built in its slot as T{args...}
     * (for an aggregate, its members in order; members left out take
     * their defaults), so no temporary is staged and copied in.
     * Every member is written, whatever the slot held before.
     *
     * @return the new element, valid until the next emplace_back()
     */
    template <typename... Args>
    T &
    emplace_back(Args &&...args)
    {
        if (_size == _mask + 1)
            grow();
        T *slot = &_buf[(_head + _size) & _mask];
        ++_size;
        return *::new (static_cast<void *>(slot))
            T{std::forward<Args>(args)...};
    }

    /**
     * Drops the oldest element; the ring must not be empty. Like
     * pop_back() and clear(), it only moves the cursors: a dropped
     * element stays readable through a reference taken before, until
     * the next emplace_back().
     */
    void
    pop_front()
    {
        _head = (_head + 1) & _mask;
        --_size;
    }

    /** Drops the youngest element; the ring must not be empty. */
    void pop_back() { --_size; }

    /** Drops every element; the array keeps its length. */
    void
    clear()
    {
        _head = 0;
        _size = 0;
    }

  private:
    void
    grow()
    {
        std::vector<T> bigger(_buf.empty() ? 8 : 2 * _buf.size());
        for (std::size_t i = 0; i < _size; ++i)
            bigger[i] = (*this)[i];
        _buf.swap(bigger);
        _mask = _buf.size() - 1;
        _head = 0;
    }

    std::vector<T> _buf;    ///< length 0 or a power of two
    /**
     * _buf.size() - 1, all ones while the array is empty, so _mask + 1
     * is always its length (vector::size() divides by sizeof(T)).
     */
    std::size_t _mask;
    std::size_t _head = 0;
    std::size_t _size = 0;
};

} // namespace ff

#endif // FF_COMMON_RING_HH
