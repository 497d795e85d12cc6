/**
 * @file
 * Host timing for the benchmark: the clock, medians, and the in-memory
 * span log of the traced run.
 *
 * The benchmark records one span around each call it makes into a
 * simulator layer (System construction, App::setup, Runtime::run,
 * drainAll, App::validate, and the per-layer probes). A span carries
 * its name, host start and end in seconds since the log was created,
 * the index of the enclosing span (-1 for a root), and the run id of
 * the simulation it belongs to (-1 outside a simulation). Spans stay
 * in memory and are written out once, when the benchmark ends.
 */

#ifndef BIGTINY_PERFBENCH_TIMING_HH
#define BIGTINY_PERFBENCH_TIMING_HH

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double start = 0;
        double end = 0;
        int parent = -1;
        int run = -1;
    };

    /** A disabled log records nothing; open/close cost one branch. */
    explicit SpanLog(bool enabled) : on(enabled) {}

    bool enabled() const { return on; }

    /** Open a span under the innermost open one; returns its index. */
    int
    open(const std::string &name, int run)
    {
        if (!on)
            return -1;
        Span s;
        s.name = name;
        s.start = secondsSince(t0);
        s.parent = stack.empty() ? -1 : stack.back();
        s.run = run;
        spans.push_back(std::move(s));
        stack.push_back(static_cast<int>(spans.size()) - 1);
        return stack.back();
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        spans[static_cast<size_t>(id)].end = secondsSince(t0);
        stack.pop_back();
    }

    const std::vector<Span> &all() const { return spans; }

    /** Write the spans as a JSON array; false if the file failed. */
    bool
    write(const std::string &path) const
    {
        FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "[\n");
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            std::fprintf(f,
                         "  {\"id\": %zu, \"name\": \"%s\", "
                         "\"start_s\": %.9f, \"end_s\": %.9f, "
                         "\"parent\": %d, \"run\": %d}%s\n",
                         i, s.name.c_str(), s.start, s.end, s.parent,
                         s.run, i + 1 < spans.size() ? "," : "");
        }
        std::fprintf(f, "]\n");
        return std::fclose(f) == 0;
    }

  private:
    bool on;
    Clock::time_point t0 = Clock::now();
    std::vector<Span> spans;
    std::vector<int> stack; //!< indices of the open spans
};

/** Opens a span on construction and closes it on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const std::string &name, int run = -1)
        : log(log), id(log.open(name, run))
    {}
    ~ScopedSpan() { log.close(id); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &log;
    int id;
};

} // namespace perfbench

#endif // BIGTINY_PERFBENCH_TIMING_HH
