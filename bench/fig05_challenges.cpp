/**
 * @file
 * Reproduces the Fig. 5 challenge quantifications:
 *  (a) the 7x physical-hop disparity of a logical ring laid out on a
 *      linear chain of 8 dies (tail latency);
 *  (b) the >2x slowdown when two transfers contend for one link.
 */
#include "bench_util.hpp"

#include "hw/config.hpp"
#include "net/collective.hpp"
#include "net/contention.hpp"
#include "tatp/chain_mapper.hpp"
#include "tatp/executor.hpp"

using namespace temp;

int
main()
{
    bench::banner("Fig. 5(a)", "tail latency of naive TSPP on dies 0-7");
    hw::MeshTopology line(1, 8);
    tatp::ChainMapper mapper(line);
    std::vector<hw::DieId> dies{0, 1, 2, 3, 4, 5, 6, 7};
    const tatp::RingInfo ring = mapper.analyzeRing(dies);
    const tatp::ChainInfo chain = mapper.analyzeChain(dies);

    TablePrinter hops({"Transfer", "Logical hops", "Physical hops",
                       "Norm latency"});
    hops.addRow({"adjacent (Di->Di+1)", "1", "1", "1.0x"});
    hops.addRow({"wrap (D7->D0)", "1",
                 std::to_string(ring.wrap_hops),
                 TablePrinter::fmtX(static_cast<double>(ring.wrap_hops),
                                    1)});
    hops.print("Logical-vs-physical hop disparity");

    tatp::TatpExecutor exec(hw::D2dConfig{});
    const double flops = 1e6;  // comm-bound regime
    const double bytes = 64e6;
    const double rate = hw::DieConfig{}.peak_flops;
    const tatp::TatpTiming naive =
        exec.timeNaiveRingPass(flops, bytes, 8, ring, rate);
    const tatp::TatpTiming tatp_t =
        exec.timePass(flops, bytes, 8, chain, rate);
    std::printf("\nNaive TSPP pass:  %.1f us  (wrap store-and-forward)\n",
                naive.time_s * 1e6);
    std::printf("TATP pass:        %.1f us  (bidirectional 1-hop relay)\n",
                tatp_t.time_s * 1e6);
    std::printf("Tail-latency inflation eliminated: %.1fx -> 1.0x\n",
                naive.time_s / tatp_t.time_s);

    bench::banner("Fig. 5(b)", "traffic contention on a shared link");
    hw::MeshTopology mesh(2, 4);
    net::Router router(mesh);
    net::ContentionModel model(mesh, hw::D2dConfig{}.bandwidth_bytes_per_s,
                               hw::D2dConfig{}.latency_s);

    net::Flow a;
    a.src = mesh.dieAt(0, 0);
    a.dst = mesh.dieAt(0, 2);
    a.bytes = 256e6;
    a.route = router.intern(router.route(a.src, a.dst));
    net::Flow b;
    b.src = mesh.dieAt(0, 1);
    b.dst = mesh.dieAt(0, 3);
    b.bytes = 256e6;
    b.route = router.intern(router.route(b.src, b.dst));

    const double solo = model.evaluate({a}).time_s;
    const double contended = model.evaluate({a, b}).time_s;
    TablePrinter contention({"Scenario", "Transfer time", "Slowdown"});
    contention.addRow({"contention-free",
                       TablePrinter::fmt(solo * 1e6, 1) + " us", "1.0x"});
    contention.addRow({"two flows share link D1->D2",
                       TablePrinter::fmt(contended * 1e6, 1) + " us",
                       TablePrinter::fmtX(contended / solo)});
    contention.print("Link contention (Fig. 5b)");
    std::printf("\nPaper claim: contention increases transfer latency by "
                ">2x vs contention-free. Measured: %.2fx (bandwidth "
                "term exactly 2x; latency overlaps)\n",
                contended / solo);
    return 0;
}
