/**
 * @file
 * Ring: the FIFO behind the per-cycle queues (fetched groups, the
 * speculative store buffer, pending B-to-A feedback). One array whose
 * length is a power of two, indexed from a head cursor, so a push or
 * pop is a masked store and never allocates once the array is as long
 * as the queue has ever been. A full push doubles the array; bounded
 * users reserve their bound up front and never grow.
 */

#ifndef FF_COMMON_RING_HH
#define FF_COMMON_RING_HH

#include <bit>
#include <cstddef>
#include <vector>

namespace ff
{

/** Growable FIFO with pops at both ends; index 0 is the oldest. */
template <typename T>
class Ring
{
  public:
    /** @param capacity elements held before the first growth */
    explicit Ring(std::size_t capacity = 0)
        : _buf(capacity == 0 ? 0 : std::bit_ceil(capacity))
    {
    }

    bool empty() const { return _size == 0; }
    std::size_t size() const { return _size; }

    /** Element @p i, counted from the oldest. */
    const T &
    operator[](std::size_t i) const
    {
        return _buf[(_head + i) & (_buf.size() - 1)];
    }
    const T &front() const { return (*this)[0]; }
    const T &back() const { return (*this)[_size - 1]; }

    void
    push_back(const T &v)
    {
        if (_size == _buf.size())
            grow();
        _buf[(_head + _size) & (_buf.size() - 1)] = v;
        ++_size;
    }

    /** Drops the oldest element; the ring must not be empty. */
    void
    pop_front()
    {
        _head = (_head + 1) & (_buf.size() - 1);
        --_size;
    }

    /** Drops the youngest element; the ring must not be empty. */
    void pop_back() { --_size; }

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
        _head = 0;
    }

    std::vector<T> _buf; ///< length 0 or a power of two
    std::size_t _head = 0;
    std::size_t _size = 0;
};

} // namespace ff

#endif // FF_COMMON_RING_HH
