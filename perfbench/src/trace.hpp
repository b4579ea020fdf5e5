/**
 * @file
 * In-memory span recorder of the traced mode.
 *
 * Spans are recorded by the benchmark around its own calls into each
 * layer's public functions (nothing inside the program is
 * instrumented). Each span holds its name ("<layer>.<call>"), start and
 * end, the span that was open on the same thread when it began, and the
 * request it belongs to. Spans stay in memory until the run ends; the
 * report derives per-layer call counts, busy time and self time from
 * them. When tracing is off a ScopedSpan costs one branch.
 */
#pragma once

#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span
{
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;    ///< index of the enclosing span, -1 for a root
    long request = -1;  ///< request id shared by one request's spans
};

/// One row of the per-layer table.
struct LayerRow
{
    std::string layer;  ///< span-name prefix before the first '.'
    long calls = 0;
    double busy_ms = 0.0;  ///< summed duration of the layer's outermost spans
    double self_ms = 0.0;  ///< duration not covered by child spans
    double share = 0.0;    ///< self_ms over all layers' self_ms
};

class Tracer
{
  public:
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /// Opens a span on the calling thread; returns its index.
    int begin(const char *name, long request);
    /// Closes the span @p index (must be the innermost open one).
    void end(int index);

    /// Snapshot of every recorded span.
    std::vector<Span> spans() const;

    /// Per-layer calls, busy, self and share, ordered by self time.
    std::vector<LayerRow> layerTable() const;

    /// Writes every span as one tab-separated line; returns false on an
    /// I/O error.
    bool writeDump(const std::string &path) const;

    /// Prints the first @p limit spans to @p out.
    void printDump(std::FILE *out, std::size_t limit) const;

  private:
    bool enabled_ = false;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/// The process-wide tracer the workloads and probes record into.
Tracer &tracer();

/// RAII span on the process-wide tracer.
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, long request = -1)
        : index_(tracer().enabled() ? tracer().begin(name, request) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (index_ >= 0)
            tracer().end(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    int index_;
};

}  // namespace perfbench
