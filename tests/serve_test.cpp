/**
 * @file
 * Tests for the service front end (src/serve): in-flight coalescing,
 * admission control, per-tenant fairness, graceful drain, and the
 * network server's round-trip contract — the response a client reads
 * off the wire is byte-identical to the in-process run() path.
 *
 * The concurrency tests run under ThreadSanitizer in CI; they are
 * written to be deterministic (a gate in the executor seam holds
 * solves in flight until the scenario is fully staged).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <regex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "api/request_io.hpp"
#include "api/serialize.hpp"
#include "api/service.hpp"
#include "model/model_zoo.hpp"
#include "serve/client.hpp"
#include "serve/dispatcher.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"

namespace temp::serve {
namespace {

core::FrameworkOptions
fastOptions()
{
    core::FrameworkOptions options;
    options.solver.ga_population = 8;
    options.solver.ga_generations = 4;
    options.eval_threads = 2;
    return options;
}

api::Request
optimizeWithSeed(std::uint64_t seed)
{
    api::OptimizeRequest request;
    request.model = model::modelByName("GPT-3 6.7B");
    request.options = fastOptions();
    request.options.solver.seed = seed;
    return request;
}

/// Holds executor calls open until release(); lets a test stage N
/// requests in flight deterministically.
struct Gate
{
    std::mutex mutex;
    std::condition_variable cv;
    bool open = false;
    int started = 0;

    void waitOpen()
    {
        std::unique_lock<std::mutex> lock(mutex);
        ++started;
        cv.notify_all();
        cv.wait(lock, [this] { return open; });
    }

    void release()
    {
        std::lock_guard<std::mutex> lock(mutex);
        open = true;
        cv.notify_all();
    }

    int startedCount()
    {
        std::lock_guard<std::mutex> lock(mutex);
        return started;
    }
};

/// Spins (1 ms steps, 20 s cap) until the predicate holds.
template <typename Pred>
::testing::AssertionResult
waitUntil(Pred &&pred)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(20);
    while (!pred()) {
        if (std::chrono::steady_clock::now() > deadline)
            return ::testing::AssertionFailure()
                   << "timed out waiting for condition";
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return ::testing::AssertionSuccess();
}

TEST(Dispatcher, NIdenticalRequestsCostOneSolve)
{
    api::TempService service;
    Gate gate;
    std::atomic<int> solves{0};
    DispatcherOptions options;
    options.workers = 2;
    options.executor = [&](const api::Request &,
                           const solver::SolveBudget &) {
        ++solves;
        gate.waitOpen();
        api::Response response;
        response.ok = true;
        response.wall_time_s = 42.0;  // payload marker
        return response;
    };
    Dispatcher dispatcher(service, options);

    const api::Request request = optimizeWithSeed(7);
    constexpr int kCallers = 8;
    std::vector<api::Response> responses(kCallers);
    std::vector<std::thread> threads;
    for (int i = 0; i < kCallers; ++i)
        threads.emplace_back([&, i] {
            responses[static_cast<std::size_t>(i)] =
                dispatcher.dispatch(request,
                                    "tenant-" + std::to_string(i));
        });
    // All callers admitted (1 host + 7 riders) before the solve may
    // finish.
    ASSERT_TRUE(waitUntil(
        [&] { return dispatcher.stats().accepted == kCallers; }));
    gate.release();
    for (std::thread &thread : threads)
        thread.join();

    const DispatchStats stats = dispatcher.stats();
    EXPECT_EQ(stats.executed, 1);
    EXPECT_EQ(stats.coalesced, kCallers - 1);
    EXPECT_EQ(stats.completed, kCallers);
    EXPECT_EQ(stats.shed, 0);
    EXPECT_EQ(solves.load(), 1);

    int riders = 0;
    for (int i = 0; i < kCallers; ++i) {
        const api::Response &response =
            responses[static_cast<std::size_t>(i)];
        EXPECT_TRUE(response.ok);
        // Every caller holds the one shared payload, personalized
        // with its own tenant and rider flag.
        EXPECT_DOUBLE_EQ(response.wall_time_s, 42.0);
        EXPECT_EQ(response.coalesced_requests, kCallers);
        EXPECT_EQ(response.tenant, "tenant-" + std::to_string(i));
        riders += response.coalesced ? 1 : 0;
    }
    EXPECT_EQ(riders, kCallers - 1);
    EXPECT_EQ(dispatcher.inFlight(), 0);
}

TEST(Dispatcher, CacheStatsIsNeverCoalesced)
{
    api::TempService service;
    Gate gate;
    DispatcherOptions options;
    options.workers = 2;
    options.executor = [&](const api::Request &,
                           const solver::SolveBudget &) {
        gate.waitOpen();
        api::Response response;
        response.ok = true;
        return response;
    };
    Dispatcher dispatcher(service, options);

    std::vector<std::thread> threads;
    for (int i = 0; i < 3; ++i)
        threads.emplace_back([&] {
            dispatcher.dispatch(api::CacheStatsRequest{}, "obs");
        });
    ASSERT_TRUE(
        waitUntil([&] { return dispatcher.stats().accepted == 3; }));
    gate.release();
    for (std::thread &thread : threads)
        thread.join();

    const DispatchStats stats = dispatcher.stats();
    EXPECT_EQ(stats.executed, 3);  // a snapshot per request
    EXPECT_EQ(stats.coalesced, 0);
}

TEST(Dispatcher, QueueFullSheds)
{
    api::TempService service;
    Gate gate;
    DispatcherOptions options;
    options.workers = 1;
    options.max_queue = 1;
    options.executor = [&](const api::Request &,
                           const solver::SolveBudget &) {
        gate.waitOpen();
        api::Response response;
        response.ok = true;
        return response;
    };
    Dispatcher dispatcher(service, options);

    // r1 occupies the worker, r2 the single queue slot; r3 must be
    // shed immediately with an explicit response.
    std::thread first(
        [&] { dispatcher.dispatch(optimizeWithSeed(1), "a"); });
    ASSERT_TRUE(waitUntil([&] { return gate.startedCount() == 1; }));
    std::thread second(
        [&] { dispatcher.dispatch(optimizeWithSeed(2), "a"); });
    ASSERT_TRUE(
        waitUntil([&] { return dispatcher.stats().accepted == 2; }));

    const api::Response shed =
        dispatcher.dispatch(optimizeWithSeed(3), "a");
    EXPECT_FALSE(shed.ok);
    EXPECT_TRUE(shed.shed);
    EXPECT_NE(shed.error.find("queue full (1 requests)"),
              std::string::npos)
        << shed.error;

    // An identical duplicate of the *executing* request still rides:
    // the admission bound does not apply to coalesced attachments.
    std::thread rider([&] {
        const api::Response response =
            dispatcher.dispatch(optimizeWithSeed(1), "b");
        EXPECT_TRUE(response.coalesced);
        EXPECT_FALSE(response.shed);
    });
    ASSERT_TRUE(waitUntil(
        [&] { return dispatcher.stats().coalesced == 1; }));

    gate.release();
    first.join();
    second.join();
    rider.join();
    const DispatchStats stats = dispatcher.stats();
    EXPECT_EQ(stats.shed, 1);
    EXPECT_EQ(stats.executed, 2);
    EXPECT_EQ(stats.coalesced, 1);
}

TEST(Dispatcher, TenantsAreServedRoundRobin)
{
    api::TempService service;
    Gate gate;
    std::mutex order_mutex;
    std::vector<std::uint64_t> order;
    DispatcherOptions options;
    options.workers = 1;
    options.executor = [&](const api::Request &request,
                           const solver::SolveBudget &) {
        gate.waitOpen();
        {
            std::lock_guard<std::mutex> lock(order_mutex);
            order.push_back(std::get<api::OptimizeRequest>(request)
                                .options.solver.seed);
        }
        api::Response response;
        response.ok = true;
        return response;
    };
    Dispatcher dispatcher(service, options);

    // Tenant A floods 8 requests, then tenant B sends 2; with one
    // worker and round-robin dequeue B is answered interleaved, not
    // after A's whole backlog. Each request is admitted before the next
    // is spawned, so the enqueue order is pinned and only the dequeue
    // policy is under test.
    std::vector<std::thread> threads;
    threads.emplace_back(
        [&] { dispatcher.dispatch(optimizeWithSeed(100), "A"); });
    ASSERT_TRUE(waitUntil([&] { return gate.startedCount() == 1; }));
    const auto enqueue = [&](std::uint64_t seed, const char *tenant) {
        threads.emplace_back([&, seed, tenant] {
            dispatcher.dispatch(optimizeWithSeed(seed), tenant);
        });
        const long admitted = static_cast<long>(threads.size());
        return waitUntil(
            [&] { return dispatcher.stats().accepted == admitted; });
    };
    for (std::uint64_t seed = 101; seed <= 107; ++seed)
        ASSERT_TRUE(enqueue(seed, "A"));
    for (std::uint64_t seed = 200; seed <= 201; ++seed)
        ASSERT_TRUE(enqueue(seed, "B"));

    gate.release();
    for (std::thread &thread : threads)
        thread.join();

    ASSERT_EQ(order.size(), 10u);
    const auto position = [&](std::uint64_t seed) {
        return std::find(order.begin(), order.end(), seed) -
               order.begin();
    };
    // B arrived last yet both its requests execute within the first
    // half of the schedule; A's backlog tail runs last.
    EXPECT_LE(position(200), 3);
    EXPECT_LE(position(201), 5);
    EXPECT_EQ(position(107), 9);
}

TEST(Dispatcher, DrainRefusesNewWorkAndFinishesAdmitted)
{
    api::TempService service;
    DispatcherOptions options;
    options.workers = 2;
    options.executor = [](const api::Request &,
                          const solver::SolveBudget &) {
        api::Response response;
        response.ok = true;
        return response;
    };
    Dispatcher dispatcher(service, options);

    const api::Response before =
        dispatcher.dispatch(optimizeWithSeed(1), "t");
    EXPECT_TRUE(before.ok);

    dispatcher.stop();
    const api::Response after =
        dispatcher.dispatch(optimizeWithSeed(2), "t");
    EXPECT_FALSE(after.ok);
    EXPECT_TRUE(after.shed);
    EXPECT_NE(after.error.find("draining"), std::string::npos);

    const DispatchStats stats = dispatcher.stats();
    EXPECT_EQ(stats.accepted, 2);
    EXPECT_EQ(stats.executed, 1);
    EXPECT_EQ(stats.shed, 1);
    EXPECT_EQ(stats.completed, 1);
}

TEST(Dispatcher, GracefulDrainUnderConcurrentLoad)
{
    api::TempService service;
    DispatcherOptions options;
    options.workers = 2;
    options.executor = [](const api::Request &,
                          const solver::SolveBudget &) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        api::Response response;
        response.ok = true;
        return response;
    };
    Dispatcher dispatcher(service, options);

    std::atomic<int> answered{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&, t] {
            for (std::uint64_t i = 0; i < 5; ++i) {
                const api::Response response = dispatcher.dispatch(
                    optimizeWithSeed(static_cast<std::uint64_t>(t) *
                                         100 +
                                     i),
                    t % 2 == 0 ? "even" : "odd");
                // Every dispatch is answered: a real response before
                // the drain, an explicit refusal after.
                EXPECT_TRUE(response.ok || response.shed);
                ++answered;
            }
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    dispatcher.stop();  // races with in-flight dispatches on purpose
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(answered.load(), 20);
    const DispatchStats stats = dispatcher.stats();
    EXPECT_EQ(stats.accepted,
              stats.executed + stats.coalesced + stats.shed);
    EXPECT_EQ(dispatcher.inFlight(), 0);
}

/// Zeroes the wall-clock fields and the schedule-cache hit gauge (it
/// counts the lookups that ran, which the pool's thread timing
/// decides), the only nondeterministic bytes in a response document.
std::string
normalizeTimings(const std::string &json)
{
    static const std::regex timing(
        "\"(wall_time_s|queue_time_s|search_time_s|schedule_cache_hits)"
        "\":[-0-9.eE+]+");
    return std::regex_replace(json, timing, "\"$1\":0");
}

TEST(Server, RoundTripMatchesInProcessByteForByte)
{
    const api::Request request = optimizeWithSeed(11);

    // In-process reference path, on its own service so both sides
    // compute from a cold framework cache.
    api::TempService local;
    const std::string expected =
        normalizeTimings(api::toJson(local.run(request)));

    api::TempService service;
    Server server(service, ServerOptions{});
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error))
        << error;
    std::string wire_response;
    ASSERT_TRUE(client.call(request, "", &wire_response, &error))
        << error;
    EXPECT_EQ(normalizeTimings(wire_response), expected);

    // Same connection, second call: the framed session is reusable,
    // and the repeat is served from the cached framework.
    std::string repeat;
    ASSERT_TRUE(client.call(request, "", &repeat, &error)) << error;
    EXPECT_NE(repeat.find("\"framework_reused\":true"),
              std::string::npos);
    server.stop();
}

TEST(Server, FramedSessionAnswersBadDocumentsInBand)
{
    api::TempService service;
    Server server(service, ServerOptions{});
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error))
        << error;
    std::string response;
    // Not JSON at all: the server answers with an ok=false document
    // instead of dropping the connection...
    ASSERT_TRUE(client.callRaw("!!definitely not json", &response,
                               &error))
        << error;
    EXPECT_NE(response.find("\"ok\":false"), std::string::npos);
    // ...so the same connection still serves the next request.
    ASSERT_TRUE(client.call(api::CacheStatsRequest{}, "obs",
                            &response, &error))
        << error;
    EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
    EXPECT_NE(response.find("\"tenant\":\"obs\""), std::string::npos);
    server.stop();
}

TEST(Server, HttpEndpoints)
{
    api::TempService service;
    Server server(service, ServerOptions{});
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    const int port = server.port();

    int status = 0;
    std::string body;
    ASSERT_TRUE(Client::httpPost("127.0.0.1", port, "/healthz", "",
                                 &status, &body, &error))
        << error;
    EXPECT_EQ(status, 200);
    EXPECT_EQ(body, "{\"ok\":true}");

    ASSERT_TRUE(Client::httpPost("127.0.0.1", port, "/v1/requests",
                                 "{\"kind\":\"frobnicate\"}", &status,
                                 &body, &error))
        << error;
    EXPECT_EQ(status, 400);
    EXPECT_NE(body.find("unknown kind"), std::string::npos);

    ASSERT_TRUE(Client::httpPost(
        "127.0.0.1", port, "/v1/requests",
        api::toJson(api::CacheStatsRequest{}, "http-tenant"), &status,
        &body, &error))
        << error;
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("\"ok\":true"), std::string::npos);
    EXPECT_NE(body.find("\"tenant\":\"http-tenant\""),
              std::string::npos);

    ASSERT_TRUE(Client::httpPost("127.0.0.1", port, "/stats", "",
                                 &status, &body, &error))
        << error;
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("\"accepted\":"), std::string::npos);

    ASSERT_TRUE(Client::httpPost("127.0.0.1", port, "/nope", "",
                                 &status, &body, &error))
        << error;
    EXPECT_EQ(status, 404);
    server.stop();
}

TEST(Server, HttpKeepAliveServesSequentialExchanges)
{
    api::TempService service;
    Server server(service, ServerOptions{});
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    // One socket, many exchanges: probe, work, observability — the
    // connection survives each response.
    HttpClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error))
        << error;

    int status = 0;
    std::string body;
    ASSERT_TRUE(client.exchange("/healthz", "", &status, &body, &error))
        << error;
    EXPECT_EQ(status, 200);
    EXPECT_EQ(body, "{\"ok\":true}");
    EXPECT_TRUE(client.connected());

    ASSERT_TRUE(client.exchange(
        "/v1/requests", api::toJson(optimizeWithSeed(13), "ka-tenant"),
        &status, &body, &error))
        << error;
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("\"ok\":true"), std::string::npos);
    EXPECT_NE(body.find("\"tenant\":\"ka-tenant\""), std::string::npos);

    // The repeat rides the same connection and the cached framework.
    ASSERT_TRUE(client.exchange(
        "/v1/requests", api::toJson(optimizeWithSeed(13), "ka-tenant"),
        &status, &body, &error))
        << error;
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("\"framework_reused\":true"),
              std::string::npos);

    ASSERT_TRUE(client.exchange("/stats", "", &status, &body, &error))
        << error;
    EXPECT_EQ(status, 200);
    // Every DispatchStats counter, deadline ones included.
    EXPECT_EQ(body, "{\"ok\":true,\"accepted\":2,\"coalesced\":0,"
                    "\"executed\":2,\"shed\":0,\"deadline_expired\":0,"
                    "\"deadline_cancelled\":0,\"completed\":2,"
                    "\"in_flight\":0}");
    EXPECT_TRUE(client.connected());
    server.stop();
}

TEST(Server, HttpKeepAliveConnectionHoldsItsSessionSlot)
{
    api::TempService service;
    ServerOptions options;
    options.max_sessions = 1;
    Server server(service, options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    const int port = server.port();

    // Complete one exchange so the keep-alive session is definitely
    // registered before the over-cap connection arrives.
    HttpClient held;
    ASSERT_TRUE(held.connect("127.0.0.1", port, &error)) << error;
    int status = 0;
    std::string body;
    ASSERT_TRUE(held.exchange("/healthz", "", &status, &body, &error))
        << error;
    EXPECT_EQ(status, 200);

    // The idle-but-open connection still occupies the only slot: a
    // one-shot probe on a fresh connection is refused at the cap.
    std::string probe_error;
    EXPECT_FALSE(Client::httpPost("127.0.0.1", port, "/healthz", "",
                                  &status, &body, &probe_error));

    // The held connection was not disturbed...
    ASSERT_TRUE(held.exchange("/healthz", "", &status, &body, &error))
        << error;
    EXPECT_EQ(status, 200);

    // ...and closing it frees the slot for new clients.
    held.close();
    bool admitted = false;
    for (int i = 0; i < 2000 && !admitted; ++i) {
        std::string retry_error;
        admitted = Client::httpPost("127.0.0.1", port, "/healthz", "",
                                    &status, &body, &retry_error);
        if (!admitted)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(admitted);
    server.stop();
}

TEST(Server, HttpConnectionCloseAndHttp10EndTheSession)
{
    api::TempService service;
    Server server(service, ServerOptions{});
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    // Raw HTTP/1.0 request with no Connection header: the default is
    // close, so the server answers and then ends the connection (EOF).
    const auto closesAfter = [&](const std::string &request) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
        EXPECT_TRUE(writeAll(fd, request.data(), request.size()));
        int status = 0;
        std::string body;
        std::string read_error;
        EXPECT_TRUE(
            readHttpResponse(fd, &status, &body, &read_error))
            << read_error;
        EXPECT_EQ(status, 200);
        // After the response the server must close: the next read is
        // a clean EOF, never a hang on a half-open connection.
        char byte = 0;
        const bool got_eof = !readExact(fd, &byte, 1);
        ::close(fd);
        return got_eof;
    };

    EXPECT_TRUE(closesAfter("GET /healthz HTTP/1.0\r\n\r\n"));
    EXPECT_TRUE(closesAfter(
        "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"));
    server.stop();
}

TEST(Server, StopDrainsInFlightSessions)
{
    api::TempService service;
    Server server(service, ServerOptions{});
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    const int port = server.port();

    // Clients race the shutdown: each call either completes with a
    // real document or fails as a clean transport error — never a
    // hang, never a crash.
    std::atomic<int> completed{0};
    std::vector<std::thread> threads;
    for (std::uint64_t i = 0; i < 3; ++i)
        threads.emplace_back([&, i] {
            Client client;
            std::string client_error;
            if (!client.connect("127.0.0.1", port, &client_error))
                return;
            std::string response;
            if (client.call(optimizeWithSeed(50 + i), "race",
                            &response, &client_error))
                ++completed;
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server.stop();
    for (std::thread &thread : threads)
        thread.join();

    const DispatchStats stats = server.stats();
    EXPECT_EQ(stats.accepted,
              stats.executed + stats.coalesced + stats.shed);
    EXPECT_GE(completed.load(), 0);
}

TEST(Server, ThrowingSolveAnswersErrorAndServerKeepsServing)
{
    // A solve that throws (seed 666 here) must not take the worker
    // thread, and with it the process, down: its session and every
    // rider coalesced onto it get a 500, and the next request is
    // served.
    api::TempService service;
    ServerOptions options;
    options.dispatcher.workers = 1;
    Gate gate;
    options.dispatcher.executor = [&](const api::Request &request,
                                      const solver::SolveBudget &) {
        if (std::get<api::OptimizeRequest>(request).options.solver.seed ==
            666) {
            gate.waitOpen();
            throw std::runtime_error("solve failed");
        }
        api::Response response;
        response.ok = true;
        return response;
    };
    Server server(service, options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    const int port = server.port();

    int statuses[2] = {0, 0};
    std::string bodies[2];
    const auto post = [&](int i) {
        std::string post_error;
        EXPECT_TRUE(Client::httpPost("127.0.0.1", port, "/v1/requests",
                                     api::toJson(optimizeWithSeed(666)),
                                     &statuses[i], &bodies[i],
                                     &post_error))
            << post_error;
    };
    std::thread owner(post, 0);
    ASSERT_TRUE(waitUntil([&] { return gate.startedCount() == 1; }));
    std::thread rider(post, 1);
    ASSERT_TRUE(
        waitUntil([&] { return server.stats().coalesced == 1; }));
    gate.release();
    owner.join();
    rider.join();
    for (int i = 0; i < 2; ++i) {
        EXPECT_EQ(statuses[i], 500);
        EXPECT_NE(bodies[i].find("internal error: solve failed"),
                  std::string::npos)
            << bodies[i];
    }

    int status = 0;
    std::string body;
    ASSERT_TRUE(Client::httpPost("127.0.0.1", port, "/v1/requests",
                                 api::toJson(optimizeWithSeed(1)),
                                 &status, &body, &error))
        << error;
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("\"ok\":true"), std::string::npos);

    server.stop();
    const DispatchStats stats = server.stats();
    EXPECT_EQ(stats.executed, 2);
    EXPECT_EQ(stats.coalesced, 1);
    EXPECT_EQ(stats.accepted,
              stats.coalesced + stats.executed + stats.shed);
}

TEST(Server, HostileModelValueAnswersErrorAndServerKeepsServing)
{
    // A negative sequence length used to parse, reach the cost model and
    // panic, which aborted the whole server. The parser now rejects it
    // by name, and the next request is served.
    api::TempService service;
    ServerOptions options;
    options.dispatcher.workers = 1;
    Server server(service, options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    const int port = server.port();

    int status = 0;
    std::string body;
    ASSERT_TRUE(Client::httpPost(
        "127.0.0.1", port, "/v1/requests",
        "{\"kind\":\"optimize\","
        "\"model\":{\"base\":\"GPT-3 6.7B\",\"seq\":-4}}",
        &status, &body, &error))
        << error;
    EXPECT_EQ(status, 400);
    EXPECT_NE(body.find("model.seq"), std::string::npos) << body;

    ASSERT_TRUE(Client::httpPost("127.0.0.1", port, "/v1/requests",
                                 api::toJson(optimizeWithSeed(1)), &status,
                                 &body, &error))
        << error;
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("\"ok\":true"), std::string::npos);
    server.stop();
    EXPECT_EQ(server.stats().executed, 1);
}

TEST(Server, SessionCapRefusesExtraConnections)
{
    api::TempService service;
    ServerOptions options;
    options.max_sessions = 1;
    Server server(service, options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    // Complete one call so the first session is definitely
    // registered before the over-cap connection arrives.
    Client first;
    ASSERT_TRUE(first.connect("127.0.0.1", server.port(), &error))
        << error;
    std::string response;
    ASSERT_TRUE(first.call(api::CacheStatsRequest{}, "", &response,
                           &error))
        << error;

    // A second connection clears the TCP handshake (backlog), but the
    // server closes it at the cap: the call fails as a clean
    // transport error and never gets a document.
    Client second;
    std::string second_error;
    if (second.connect("127.0.0.1", server.port(), &second_error)) {
        std::string ignored;
        EXPECT_FALSE(second.callRaw(
            api::toJson(api::CacheStatsRequest{}, ""), &ignored,
            &second_error));
    }

    // The refused connection did not disturb the live session...
    ASSERT_TRUE(first.call(api::CacheStatsRequest{}, "", &response,
                           &error))
        << error;

    // ...and once it ends, capacity frees up again.
    first.close();
    bool reconnected = false;
    for (int i = 0; i < 2000 && !reconnected; ++i) {
        Client retry;
        std::string retry_error;
        std::string document;
        if (retry.connect("127.0.0.1", server.port(),
                          &retry_error) &&
            retry.call(api::CacheStatsRequest{}, "", &document,
                       &retry_error))
            reconnected = true;
        else
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(reconnected);
    server.stop();
}

TEST(Dispatcher, DeadlineExpiredRequestsAreShedExplicitly)
{
    api::TempService service;
    Gate gate;
    DispatcherOptions options;
    options.workers = 1;
    options.deadline_ms = 10;
    options.executor = [&](const api::Request &,
                           const solver::SolveBudget &) {
        gate.waitOpen();
        api::Response response;
        response.ok = true;
        return response;
    };
    Dispatcher dispatcher(service, options);

    // r1 occupies the single worker; r2 queues behind it and ages past
    // the deadline while the gate is closed.
    std::thread first(
        [&] { dispatcher.dispatch(optimizeWithSeed(1), "a"); });
    ASSERT_TRUE(waitUntil([&] { return gate.startedCount() == 1; }));
    std::thread second([&] {
        const api::Response response =
            dispatcher.dispatch(optimizeWithSeed(2), "a");
        EXPECT_FALSE(response.ok);
        EXPECT_TRUE(response.shed);
        EXPECT_TRUE(response.deadline_exceeded);
        EXPECT_NE(response.error.find("deadline exceeded"),
                  std::string::npos)
            << response.error;
        EXPECT_NE(response.error.find("serve.deadline_ms=10"),
                  std::string::npos)
            << response.error;
    });
    ASSERT_TRUE(
        waitUntil([&] { return dispatcher.stats().accepted == 2; }));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    gate.release();
    first.join();
    second.join();

    const DispatchStats stats = dispatcher.stats();
    EXPECT_EQ(stats.deadline_expired, 1);
    EXPECT_EQ(stats.shed, 1);
    EXPECT_EQ(stats.executed, 1);
    // deadline_expired is a subset of shed: the accounting identity
    // is unchanged.
    EXPECT_EQ(stats.accepted,
              stats.coalesced + stats.executed + stats.shed);
}

TEST(Dispatcher, DeadlineZeroMeansNoDeadline)
{
    api::TempService service;
    Gate gate;
    DispatcherOptions options;
    options.workers = 1;
    options.deadline_ms = 0;
    options.executor = [&](const api::Request &,
                           const solver::SolveBudget &) {
        gate.waitOpen();
        api::Response response;
        response.ok = true;
        return response;
    };
    Dispatcher dispatcher(service, options);

    std::thread first(
        [&] { dispatcher.dispatch(optimizeWithSeed(1), "a"); });
    ASSERT_TRUE(waitUntil([&] { return gate.startedCount() == 1; }));
    std::thread second([&] {
        const api::Response response =
            dispatcher.dispatch(optimizeWithSeed(2), "a");
        EXPECT_TRUE(response.ok);
        EXPECT_FALSE(response.deadline_exceeded);
    });
    ASSERT_TRUE(
        waitUntil([&] { return dispatcher.stats().accepted == 2; }));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    gate.release();
    first.join();
    second.join();
    EXPECT_EQ(dispatcher.stats().deadline_expired, 0);
    EXPECT_EQ(dispatcher.stats().executed, 2);
}

TEST(Dispatcher, DeadlineCancelsInFlightSolveAtBudgetBoundary)
{
    api::TempService service;
    Gate gate;
    std::atomic<bool> budget_armed{false};
    DispatcherOptions options;
    options.workers = 1;
    // Generous enough that the dequeue-time check never sheds: the
    // cancellation below is purely the in-flight channel.
    options.deadline_ms = 60000;
    options.executor = [&](const api::Request &,
                           const solver::SolveBudget &budget) {
        // Under a serve deadline every executed request carries a
        // wall-capped, cancellable budget.
        budget_armed = budget.limited() && budget.cancel.armed() &&
                       budget.max_wall_ms > 0.0;
        gate.waitOpen();
        // Model the solver's contract: cancellation is observed at the
        // next quantum boundary and the run returns its best-so-far
        // partial, flagged.
        budget.cancel.requestCancel();
        common::BudgetGauge gauge = budget.gauge();
        gauge.charge(3);
        EXPECT_TRUE(gauge.exhausted());
        api::Response response;
        response.ok = true;
        response.budget_exhausted = gauge.exhausted();
        response.quanta_used = gauge.used();
        return response;
    };
    Dispatcher dispatcher(service, options);

    // A host request held in flight plus a rider coalesced onto it:
    // one truncated solve must answer both.
    const api::Request request = optimizeWithSeed(31);
    api::Response host_response;
    api::Response rider_response;
    std::thread host(
        [&] { host_response = dispatcher.dispatch(request, "a"); });
    ASSERT_TRUE(waitUntil([&] { return gate.startedCount() == 1; }));
    std::thread rider(
        [&] { rider_response = dispatcher.dispatch(request, "b"); });
    ASSERT_TRUE(
        waitUntil([&] { return dispatcher.stats().coalesced == 1; }));
    gate.release();
    host.join();
    rider.join();

    EXPECT_TRUE(budget_armed.load());
    for (const api::Response *r : {&host_response, &rider_response}) {
        EXPECT_TRUE(r->ok);
        EXPECT_TRUE(r->budget_exhausted);
        EXPECT_EQ(r->quanta_used, 3);
        EXPECT_FALSE(r->deadline_exceeded);
        EXPECT_FALSE(r->shed);
    }
    const DispatchStats stats = dispatcher.stats();
    EXPECT_EQ(stats.executed, 1);
    EXPECT_EQ(stats.coalesced, 1);
    EXPECT_EQ(stats.deadline_cancelled, 1);
    EXPECT_EQ(stats.deadline_expired, 0);
    // deadline_cancelled is a subset of executed: the drain identity
    // still balances.
    EXPECT_EQ(stats.accepted,
              stats.coalesced + stats.executed + stats.shed);
}

TEST(Dispatcher, DeadlineTruncatesRealSolveEndToEnd)
{
    // No executor seam: the remainder budget flows into a real solve,
    // whose wall cap is far below a cold solve's runtime. Depending on
    // scheduling the millisecond is gone either before dequeue (an
    // explicit shed) or mid-solve (a flagged best-so-far partial) —
    // both are deadline enforcement, neither holds the worker.
    api::TempService service;
    DispatcherOptions options;
    options.workers = 1;
    options.deadline_ms = 1;
    Dispatcher dispatcher(service, options);
    const api::Response response =
        dispatcher.dispatch(optimizeWithSeed(99), "t");
    if (response.deadline_exceeded) {
        EXPECT_FALSE(response.ok);
        EXPECT_TRUE(response.shed);
        EXPECT_EQ(dispatcher.stats().deadline_expired, 1);
    } else {
        ASSERT_TRUE(response.ok) << response.error;
        EXPECT_TRUE(response.budget_exhausted);
        EXPECT_GT(response.quanta_used, 0);
        EXPECT_TRUE(response.solver.feasible);
        EXPECT_EQ(dispatcher.stats().deadline_cancelled, 1);
    }
}

/// Reserves an ephemeral TCP port and releases it: the number is free
/// (modulo an unlikely race) for a server started later in the test.
int
reservePort()
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                            &len),
              0);
    const int port = ntohs(addr.sin_port);
    ::close(fd);
    return port;
}

TEST(Client, RetryIsOffByDefaultAndBoundedWhenOn)
{
    const int port = reservePort();
    std::string error;

    // Off by default: one dial, immediate failure.
    Client plain;
    EXPECT_FALSE(plain.connect("127.0.0.1", port, &error));
    EXPECT_EQ(error.find("(after"), std::string::npos) << error;

    // Bounded: retries exhaust and the error says how many attempts.
    RetryPolicy two;
    two.retries = 2;
    two.base_delay_ms = 1;
    two.max_delay_ms = 4;
    Client bounded;
    EXPECT_FALSE(bounded.connect("127.0.0.1", port, two, &error));
    EXPECT_NE(error.find("(after 3 attempts)"), std::string::npos)
        << error;

    // A non-transient failure is never retried, even with retries on.
    Client hopeless;
    EXPECT_FALSE(
        hopeless.connect("definitely not a host", 80, two, &error));
    EXPECT_NE(error.find("invalid address"), std::string::npos)
        << error;
    EXPECT_EQ(error.find("(after"), std::string::npos) << error;
}

TEST(Client, RetryConnectsToLateBindingServer)
{
    const int port = reservePort();
    api::TempService service;
    ServerOptions server_options;
    server_options.port = port;
    Server server(service, server_options);

    // The server binds only after the client's first dial has failed:
    // without retries the connect is a guaranteed miss, with them the
    // backoff loop finds the socket once it exists.
    std::thread late([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
        std::string start_error;
        ASSERT_TRUE(server.start(&start_error)) << start_error;
    });

    RetryPolicy patient;
    patient.retries = 10;
    patient.base_delay_ms = 10;
    patient.max_delay_ms = 50;
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", port, patient, &error))
        << error;
    late.join();

    std::string response;
    ASSERT_TRUE(
        client.call(api::CacheStatsRequest{}, "", &response, &error))
        << error;
    EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
    client.close();

    // The HTTP face takes the same policy (here the server is already
    // up, so the first dial wins and no retry fires).
    HttpClient http;
    ASSERT_TRUE(http.connect("127.0.0.1", port, patient, &error))
        << error;
    int status = 0;
    std::string body;
    ASSERT_TRUE(http.exchange("/healthz", "", &status, &body, &error))
        << error;
    EXPECT_EQ(status, 200);
    http.close();
    server.stop();
}

}  // namespace
}  // namespace temp::serve
