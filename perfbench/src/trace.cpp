#include "trace.hpp"

#include <algorithm>
#include <map>

#include "bench.hpp"

namespace perfbench {

namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<int> open_spans;

}  // namespace

Tracer &
tracer()
{
    static Tracer instance;
    return instance;
}

int
Tracer::begin(const char *name, long request)
{
    Span span;
    span.name = name;
    span.parent = open_spans.empty() ? -1 : open_spans.back();
    span.request = request;
    if (request < 0 && span.parent >= 0) {
        std::lock_guard<std::mutex> lock(mutex_);
        span.request = spans_[static_cast<std::size_t>(span.parent)].request;
    }
    span.start_s = nowS();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    const int index = static_cast<int>(spans_.size()) - 1;
    open_spans.push_back(index);
    return index;
}

void
Tracer::end(int index)
{
    const double t = nowS();
    if (!open_spans.empty() && open_spans.back() == index)
        open_spans.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end_s = t;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<LayerRow>
Tracer::layerTable() const
{
    const std::vector<Span> all = spans();
    auto layerOf = [](const std::string &name) {
        return name.substr(0, name.find('.'));
    };
    // Children sharing a thread never overlap, so a span's covered
    // time is the sum of its children's durations.
    std::vector<double> child_s(all.size(), 0.0);
    for (const Span &span : all)
        if (span.parent >= 0)
            child_s[static_cast<std::size_t>(span.parent)] +=
                span.end_s - span.start_s;
    std::map<std::string, LayerRow> rows;
    double total_self_ms = 0.0;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &span = all[i];
        const std::string layer = layerOf(span.name);
        LayerRow &row = rows[layer];
        row.layer = layer;
        ++row.calls;
        const double duration_ms = (span.end_s - span.start_s) * 1e3;
        const bool outermost =
            span.parent < 0 ||
            layerOf(all[static_cast<std::size_t>(span.parent)].name) !=
                layer;
        if (outermost)
            row.busy_ms += duration_ms;
        const double self_ms =
            std::max(0.0, duration_ms - child_s[i] * 1e3);
        row.self_ms += self_ms;
        total_self_ms += self_ms;
    }
    std::vector<LayerRow> table;
    for (auto &[layer, row] : rows) {
        row.share = total_self_ms > 0.0 ? row.self_ms / total_self_ms : 0.0;
        table.push_back(row);
    }
    std::sort(table.begin(), table.end(),
              [](const LayerRow &a, const LayerRow &b) {
                  return a.self_ms > b.self_ms;
              });
    return table;
}

bool
Tracer::writeDump(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    const std::vector<Span> all = spans();
    std::fprintf(out, "index\tname\tstart_s\tend_s\tparent\trequest\n");
    const double origin = all.empty() ? 0.0 : all.front().start_s;
    for (std::size_t i = 0; i < all.size(); ++i)
        std::fprintf(out, "%zu\t%s\t%.9f\t%.9f\t%d\t%ld\n", i,
                     all[i].name.c_str(), all[i].start_s - origin,
                     all[i].end_s - origin, all[i].parent,
                     all[i].request);
    return std::fclose(out) == 0;
}

void
Tracer::printDump(std::FILE *out, std::size_t limit) const
{
    const std::vector<Span> all = spans();
    const double origin = all.empty() ? 0.0 : all.front().start_s;
    std::fprintf(out, "  %6s  %-26s %12s %12s %7s %8s\n", "index", "name",
                 "start_ms", "dur_ms", "parent", "request");
    for (std::size_t i = 0; i < all.size() && i < limit; ++i)
        std::fprintf(out, "  %6zu  %-26s %12.3f %12.3f %7d %8ld\n", i,
                     all[i].name.c_str(), (all[i].start_s - origin) * 1e3,
                     (all[i].end_s - all[i].start_s) * 1e3, all[i].parent,
                     all[i].request);
    if (all.size() > limit)
        std::fprintf(out, "  ... %zu more spans in the dump file\n",
                     all.size() - limit);
}

}  // namespace perfbench
