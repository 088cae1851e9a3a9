/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * Spans are opened and closed around calls into the library's public
 * functions, from the benchmark's own code. Each span carries a name,
 * start and end (steady-clock nanoseconds), its parent span and a
 * trace id (the request index). Nothing is written while the run is
 * going; writeChromeTrace() dumps everything as Chrome trace-event
 * JSON once the run ends, which Perfetto and chrome://tracing read.
 *
 * Single-threaded by design: the traced replay issues one layer call
 * at a time (each call may fan out over the library's own thread
 * pool internally), so the open-span stack needs no lock.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
    std::string name;
    std::int64_t traceId = 0;
    std::size_t id = 0;
    std::size_t parent = 0; //!< 0 = root
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;

    double seconds() const { return double(endNs - startNs) * 1e-9; }
};

class Tracer
{
  public:
    /** RAII span: opens on construction, closes on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &t, std::string name) : t_(t), idx_(t.open(name)) {}
        ~Scope() { t_.close(idx_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        std::size_t idx_;
    };

    /** Trace id given to spans opened from now on. */
    void setTraceId(std::int64_t id) { traceId_ = id; }

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time of each span, in spans() order: its duration minus the
     * time its direct children cover (children of one parent run one
     * after another here, so they never overlap).
     */
    std::vector<double>
    selfSeconds() const
    {
        std::vector<double> self;
        for (const Span &s : spans_)
            self.push_back(s.seconds());
        for (const Span &s : spans_)
            if (s.parent != 0)
                self[s.parent - 1] -= s.seconds();
        return self;
    }

    /** Name of the root span above span `i` (an index into spans()). */
    const std::string &
    rootName(std::size_t i) const
    {
        while (spans_[i].parent != 0)
            i = spans_[i].parent - 1;
        return spans_[i].name;
    }

    /** Durations of every span with this name, in recording order. */
    std::vector<double>
    durations(const std::string &name) const
    {
        std::vector<double> out;
        for (const Span &s : spans_)
            if (s.name == name)
                out.push_back(s.seconds());
        return out;
    }

    /**
     * Chrome trace-event JSON ("X" complete events). The request
     * index doubles as the thread lane so each request's tree reads
     * as one row. Returns false when the file cannot be written.
     */
    bool
    writeChromeTrace(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fprintf(f, "{\"traceEvents\":[\n");
        std::int64_t t0 = spans_.empty() ? 0 : spans_.front().startNs;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(
                f,
                "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                "\"tid\":%lld,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                "\"trace_id\":%lld,\"span_id\":%zu,\"parent\":%zu}}\n",
                i == 0 ? "" : ",", s.name.c_str(),
                (long long)s.traceId, double(s.startNs - t0) * 1e-3,
                double(s.endNs - s.startNs) * 1e-3,
                (long long)s.traceId, s.id, s.parent);
        }
        std::fprintf(f, "],\"displayTimeUnit\":\"ms\"}\n");
        return std::fclose(f) == 0;
    }

  private:
    static std::int64_t
    nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    std::size_t
    open(const std::string &name)
    {
        Span s;
        s.name = name;
        s.traceId = traceId_;
        s.id = spans_.size() + 1;
        s.parent = stack_.empty() ? 0 : stack_.back();
        s.startNs = nowNs();
        spans_.push_back(std::move(s));
        stack_.push_back(spans_.size());
        return spans_.size() - 1;
    }

    void
    close(std::size_t idx)
    {
        spans_[idx].endNs = nowNs();
        stack_.pop_back();
    }

    std::vector<Span> spans_;
    std::vector<std::size_t> stack_; //!< ids of the open spans
    std::int64_t traceId_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
