/**
 * @file
 * The metrics layer: named counters, fixed-bucket histograms and
 * fixed-rate time series collected into a Registry, plus a small
 * streaming JSON writer the export path renders them with. The
 * layer is passive — nothing in the simulator samples into a
 * Registry unless an observer client is attached, so the zero-cost
 * guarantee of the CoreObserver seam carries through: an unattached
 * run pays exactly one null-pointer test per event site and no
 * metrics work at all.
 */

#ifndef FF_COMMON_METRICS_HH
#define FF_COMMON_METRICS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hh"

namespace ff
{
namespace metrics
{

/**
 * Minimal streaming JSON writer: objects, arrays, keys and scalar
 * values with correct comma placement and string escaping. The
 * emitter never buffers — callers stream directly into an ostream —
 * and panics (in debug) only through misuse of the nesting calls.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : _os(os) {}

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Emits the key of the next member of the enclosing object. */
    void key(std::string_view k);

    void value(std::string_view s);
    void value(const char *s) { value(std::string_view(s)); }
    void value(bool b);
    void value(double d);
    void value(std::uint64_t v);
    void value(std::int64_t v);
    void value(std::uint32_t v) { value(std::uint64_t(v)); }
    void value(std::int32_t v) { value(std::int64_t(v)); }

    /** key() + value() in one call. */
    template <typename T>
    void
    kv(std::string_view k, T v)
    {
        key(k);
        value(v);
    }

    /** Escapes @p s per RFC 8259 (quotes, backslash, control chars). */
    static std::string escape(std::string_view s);

  private:
    /** Emits the separating comma when needed. */
    void preValue();

    std::ostream &_os;
    /** One element per open container: true once a member was emitted. */
    std::vector<bool> _needComma;
    bool _afterKey = false;
};

/** A named, monotonically adjustable 64-bit event counter. */
class Counter
{
  public:
    Counter &operator++() { ++_value; return *this; }
    Counter &operator+=(std::uint64_t v) { _value += v; return *this; }

    std::uint64_t value() const { return _value; }
    void reset() { _value = 0; }

  private:
    std::uint64_t _value = 0;
};

/**
 * Fixed-bucket histogram over [min, max) with uniform bucket width;
 * out-of-range samples land in underflow/overflow.
 */
class Histogram
{
  public:
    Histogram(std::int64_t min, std::int64_t max,
              std::size_t num_buckets);

    void sample(std::int64_t v);

    std::int64_t min() const { return _min; }
    std::int64_t max() const { return _max; }
    std::uint64_t samples() const { return _samples; }
    std::uint64_t underflow() const { return _underflow; }
    std::uint64_t overflow() const { return _overflow; }
    const std::vector<std::uint64_t> &buckets() const { return _buckets; }
    double mean() const;
    /** Smallest sample value >= the q-quantile (0 <= q <= 1). */
    std::int64_t quantile(double q) const;

    void reset();

  private:
    std::int64_t _min;
    std::int64_t _max;
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _samples = 0;
    std::uint64_t _underflow = 0;
    std::uint64_t _overflow = 0;
    std::int64_t _sum = 0;
};

/**
 * Fixed-rate time series: samples are folded into epochs of
 * @c epochCycles simulated cycles and each completed epoch stores the
 * epoch mean, so a multi-million-cycle run exports as a bounded,
 * plot-ready vector. finish() closes the partial trailing epoch.
 */
class TimeSeries
{
  public:
    explicit TimeSeries(Cycle epoch_cycles);

    /** Folds @p v into the epoch containing @p now (cycles must be
     *  non-decreasing across calls). */
    void sample(Cycle now, double v);

    /** Flushes the in-progress epoch, if it holds any samples. */
    void finish();

    Cycle epochCycles() const { return _epoch; }
    /** Mean value per completed epoch, in time order. */
    const std::vector<double> &points() const { return _points; }

    void reset();

  private:
    void flushEpoch();

    Cycle _epoch;
    std::uint64_t _curEpoch = 0;
    double _sum = 0.0;
    std::uint64_t _count = 0;
    std::vector<double> _points;
};

/**
 * Registry of named metrics belonging to one run. Creation is
 * idempotent per name within a kind (re-requesting returns the same
 * instance); names must be unique within their kind. The registry is
 * a passive container — attach/detach policy belongs to whoever owns
 * the observers feeding it.
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;
    Registry(Registry &&) = default;
    Registry &operator=(Registry &&) = default;

    Counter &counter(const std::string &name);
    Histogram &histogram(const std::string &name, std::int64_t min,
                         std::int64_t max, std::size_t buckets);
    TimeSeries &series(const std::string &name, Cycle epoch_cycles);

    const std::map<std::string, Counter> &counters() const
    {
        return _counters;
    }
    const std::map<std::string, Histogram> &histograms() const
    {
        return _histograms;
    }

    /** Closes every series' trailing epoch. */
    void finish();

    /**
     * Renders the registry as one JSON object with "counters",
     * "histograms" and "series" members (see tools/metrics_schema.json
     * for the document schema this feeds).
     */
    void toJson(JsonWriter &w) const;

  private:
    std::map<std::string, Counter> _counters;
    std::map<std::string, Histogram> _histograms;
    std::map<std::string, TimeSeries> _series;
};

} // namespace metrics
} // namespace ff

#endif // FF_COMMON_METRICS_HH
