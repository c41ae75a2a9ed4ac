// servebench_client — drives one ambit_serve process over TCP for one
// workload and prints the benchmark's metrics.
//
//   servebench_client --workload <bulk_evalb|small_eval|reload_mix>
//                     --seed <n> --seconds <s> --trace <0|1>
//                     --server <path to ambit_serve> --workdir <dir>
//
// The client owns every input: it generates the .type f covers (from a
// fixed seed) and the request streams (from --seed) with its own RNG
// and PLA writer, and checks every response against its own
// sum-of-products oracle over the generated source cover. The server
// sees only the written .pla files and the wire requests.
//
// --trace 0 prints the end-to-end metrics, measured with no tracing.
// --trace 1 runs the same workload, scrapes the server's METRICS page
// once after the measured window, then times calls into each layer's
// public functions in-process (spans recorded here, never inside the
// program) and prints the per-layer metrics. The last stdout line is
// always one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/gnor_pla.h"
#include "espresso/espresso.h"
#include "espresso/expand.h"
#include "espresso/irredundant.h"
#include "espresso/reduce.h"
#include "espresso/unate.h"
#include "logic/pattern_batch.h"
#include "logic/pla_io.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "simulate/pla_sim.h"
#include "tech/technology.h"
#include "util/cpu_features.h"
#include "util/thread_pool.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error(message);
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// ---------------------------------------------------------------------
// Inputs: RNG, covers, PLA writer, oracle.

/// splitmix64: small, seedable, and independent of the program's RNG.
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }
};

/// One RNG stream per (seed, purpose), so adding a stream never shifts
/// the others.
Rng stream(std::uint64_t seed, std::uint64_t purpose) {
  return Rng(seed * 0x100000001b3ULL + purpose * 0x9e3779b97f4a7c15ULL + 1);
}

constexpr int kInputs = 16;
constexpr int kOutputs = 8;
constexpr std::uint64_t kBulkPatterns = std::uint64_t{1} << 18;
constexpr std::uint64_t kBulkWordsPerLane = kBulkPatterns / 64;
constexpr int kBulkPayloads = 4;
constexpr int kSmallRing = 4096;
constexpr double kWarmupSeconds = 1.0;

/// Cover shapes. The main cover is classifier scale (16 inputs, 192
/// products); the reload cover is smaller so one LOAD of it costs
/// about 0.3 s of Espresso.
struct CoverShape {
  int products;
  double literal_prob;  ///< chance an input is a literal, not '-'
  double output_prob;   ///< chance a product drives an output
};
constexpr CoverShape kMainShape{192, 0.6, 0.25};
constexpr CoverShape kReloadShape{160, 0.6, 0.25};

/// The covers come from this fixed seed, the request streams from
/// --seed. One LOAD's Espresso time depends on the cover (0.4-0.8 s
/// across generated covers of kMainShape); covers drawn per --seed
/// would make setup_s follow the seed mix rather than the program.
constexpr std::uint64_t kCoverSeed = 1;

struct SopCube {
  std::uint32_t care = 0;   ///< bit i set: input i is a literal
  std::uint32_t value = 0;  ///< the literal's polarity where care is set
  std::uint32_t outs = 0;   ///< bit j set: the product drives output j
};

/// A .type f sum of products, and the benchmark's oracle for it.
struct Sop {
  std::vector<SopCube> cubes;

  std::uint32_t eval(std::uint32_t x) const {
    std::uint32_t y = 0;
    for (const SopCube& c : cubes) {
      if ((x & c.care) == c.value) {
        y |= c.outs;
      }
    }
    return y;
  }
};

Sop generate_cover(Rng rng, const CoverShape& shape) {
  Sop sop;
  for (int p = 0; p < shape.products; ++p) {
    SopCube c;
    for (int i = 0; i < kInputs; ++i) {
      if (rng.unit() < shape.literal_prob) {
        c.care |= 1u << i;
        c.value |= static_cast<std::uint32_t>(rng.below(2)) << i;
      }
    }
    for (int j = 0; j < kOutputs; ++j) {
      if (rng.unit() < shape.output_prob) {
        c.outs |= 1u << j;
      }
    }
    if (c.outs == 0) {
      c.outs = 1u << rng.below(kOutputs);
    }
    sop.cubes.push_back(c);
  }
  return sop;
}

void write_pla(const std::string& path, const Sop& sop) {
  std::ofstream out(path);
  out << ".i " << kInputs << "\n.o " << kOutputs << "\n.p "
      << sop.cubes.size() << "\n.type f\n";
  for (const SopCube& c : sop.cubes) {
    for (int i = 0; i < kInputs; ++i) {
      const bool literal = ((c.care >> i) & 1) != 0;
      out << (!literal ? '-' : ((c.value >> i) & 1) ? '1' : '0');
    }
    out << ' ';
    for (int j = 0; j < kOutputs; ++j) {
      out << (((c.outs >> j) & 1) ? '1' : '0');
    }
    out << '\n';
  }
  out << ".e\n";
  if (!out) {
    fail("cannot write " + path);
  }
}

std::string hex_digits(std::uint32_t value, int digits) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%0*x", digits, value);
  return buf;
}

/// One text request (EVAL or SIM) with everything needed to check it.
struct TextRequest {
  std::string line;      ///< with its trailing newline
  std::string expected;  ///< full EVAL response line; unused for SIM
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;  ///< oracle outputs per pattern
};

TextRequest make_text_request(Rng& rng, const Sop& sop, const char* verb,
                              const char* circuit, int max_patterns) {
  TextRequest r;
  const int n = 1 + static_cast<int>(rng.below(max_patterns));
  r.line = std::string(verb) + " " + circuit;
  r.expected = "OK";
  for (int k = 0; k < n; ++k) {
    const auto x = static_cast<std::uint32_t>(rng.below(1u << kInputs));
    const std::uint32_t y = sop.eval(x);
    r.inputs.push_back(x);
    r.outputs.push_back(y);
    r.line += ' ';
    r.line += hex_digits(x, 4);
    r.expected += ' ';
    r.expected += hex_digits(y, 2);
  }
  r.line += '\n';
  return r;
}

std::vector<TextRequest> make_eval_ring(std::uint64_t seed, int conn,
                                        const Sop& sop) {
  Rng rng = stream(seed, 100 + static_cast<std::uint64_t>(conn));
  std::vector<TextRequest> ring;
  ring.reserve(kSmallRing);
  for (int i = 0; i < kSmallRing; ++i) {
    ring.push_back(make_text_request(rng, sop, "EVAL", "m", 8));
  }
  return ring;
}

/// One EVALB request of kBulkPatterns random patterns and its expected
/// response, computed pattern by pattern through the oracle.
struct BulkPayload {
  std::vector<std::uint64_t> in_words;   ///< wire layout, lane 0 first
  std::vector<std::uint64_t> out_words;  ///< oracle output lanes
  std::string request;                   ///< header line + payload
  std::string expected;                  ///< response header + payload
};

BulkPayload make_bulk(std::uint64_t seed, int index, const Sop& sop) {
  Rng rng = stream(seed, 200 + static_cast<std::uint64_t>(index));
  BulkPayload b;
  b.in_words.resize(kInputs * kBulkWordsPerLane);
  for (std::uint64_t& w : b.in_words) {
    w = rng.next();
  }
  b.out_words.assign(kOutputs * kBulkWordsPerLane, 0);
  for (std::uint64_t p = 0; p < kBulkPatterns; ++p) {
    const std::uint64_t word = p / 64;
    const int bit = static_cast<int>(p % 64);
    std::uint32_t x = 0;
    for (int i = 0; i < kInputs; ++i) {
      x |= static_cast<std::uint32_t>(
               (b.in_words[i * kBulkWordsPerLane + word] >> bit) & 1)
           << i;
    }
    const std::uint32_t y = sop.eval(x);
    for (int j = 0; j < kOutputs; ++j) {
      b.out_words[j * kBulkWordsPerLane + word] |=
          static_cast<std::uint64_t>((y >> j) & 1) << bit;
    }
  }
  const auto bytes = [](const std::vector<std::uint64_t>& words) {
    return std::string(reinterpret_cast<const char*>(words.data()),
                       words.size() * sizeof(std::uint64_t));
  };
  b.request = "EVALB m " + std::to_string(kBulkPatterns) + " " +
              std::to_string(b.in_words.size()) + "\n" + bytes(b.in_words);
  b.expected = "OK EVALB " + std::to_string(kBulkPatterns) + " " +
               std::to_string(b.out_words.size()) + "\n" +
               bytes(b.out_words);
  return b;
}

// ---------------------------------------------------------------------
// The server process.

class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::string& log_path)
      : log_path_(log_path) {
    // Truncated here, before the fork, so wait_for_port can never read
    // a previous run's port from the same file.
    const int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log < 0) {
      fail("cannot create " + log_path);
    }
    pid_ = fork();
    if (pid_ < 0) {
      close(log);
      fail("fork failed");
    }
    if (pid_ == 0) {
      // The server must not outlive the benchmark, even if the client
      // dies without unwinding.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int null = open("/dev/null", O_RDWR);
      if (null < 0) {
        _exit(127);
      }
      dup2(null, 0);
      dup2(log, 1);
      dup2(log, 2);
      execl(binary.c_str(), "ambit_serve", "--tcp", "127.0.0.1:0",
            static_cast<char*>(nullptr));
      _exit(127);
    }
    close(log);
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  ~ServerProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }

  /// Polls the server's log for its "tcp bound port <n>" line.
  int wait_for_port() {
    const std::string marker = "tcp bound port ";
    for (int tries = 0; tries < 30000; ++tries) {
      std::ifstream in(log_path_);
      std::stringstream text;
      text << in.rdbuf();
      const std::string s = text.str();
      const auto at = s.find(marker);
      if (at != std::string::npos && s.find('\n', at) != std::string::npos) {
        return std::atoi(s.c_str() + at + marker.size());
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        fail("ambit_serve exited during start-up; log:\n" + s);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    fail("ambit_serve did not announce its port");
  }

  /// Reaps the server after SHUTDOWN and returns its resource usage.
  rusage wait_exit(double timeout_s) {
    rusage usage{};
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(timeout_s);
    int status = 0;
    while (Clock::now() < deadline) {
      const pid_t got = wait4(pid_, &status, WNOHANG, &usage);
      if (got == pid_) {
        pid_ = -1;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
          fail("ambit_serve exited abnormally (status " +
               std::to_string(status) + ")");
        }
        return usage;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    fail("ambit_serve did not exit after SHUTDOWN");
  }

 private:
  pid_t pid_ = -1;
  std::string log_path_;
};

// ---------------------------------------------------------------------
// One TCP connection with a buffered reader.

class Conn {
 public:
  explicit Conn(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      fail("socket failed");
    }
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      close(fd_);
      fail("connect to port " + std::to_string(port) + " failed");
    }
    buf_.resize(1 << 18);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() { close(fd_); }

  void send_all(const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        fail("send failed");
      }
      sent += static_cast<std::size_t>(n);
    }
  }

  /// The next response line, without its newline.
  std::string read_line() {
    for (;;) {
      const char* begin = buf_.data() + head_;
      const char* nl =
          static_cast<const char*>(std::memchr(begin, '\n', tail_ - head_));
      if (nl != nullptr) {
        std::string line(begin, nl);
        head_ = static_cast<std::size_t>(nl - buf_.data()) + 1;
        return line;
      }
      fill();
    }
  }

  /// Appends exactly n raw bytes to `out`.
  void read_exact(std::size_t n, std::string& out) {
    while (n > 0) {
      if (head_ == tail_) {
        fill();
      }
      const std::size_t take = std::min(n, tail_ - head_);
      out.append(buf_.data() + head_, take);
      head_ += take;
      n -= take;
    }
  }

  std::string transact(const std::string& line) {
    send_all(line);
    return read_line();
  }

 private:
  void fill() {
    if (head_ == tail_) {
      head_ = tail_ = 0;
    } else if (tail_ == buf_.size()) {
      std::memmove(buf_.data(), buf_.data() + head_, tail_ - head_);
      tail_ -= head_;
      head_ = 0;
    }
    if (tail_ == buf_.size()) {
      buf_.resize(buf_.size() * 2);
    }
    const ssize_t n = recv(fd_, buf_.data() + tail_, buf_.size() - tail_, 0);
    if (n <= 0) {
      fail("connection closed by the server");
    }
    tail_ += static_cast<std::size_t>(n);
  }

  int fd_ = -1;
  std::string buf_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
};

// ---------------------------------------------------------------------
// Closed-loop clients. Each connection runs on its own client thread
// and keeps its own tally; the tallies are merged after the join.

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::string first_error;
  // Measured window only, per 1-s slice. A request counts toward each
  // slice in proportion to the part of its round trip inside it, so a
  // slice's rate is not rounded to whole requests.
  std::vector<double> slice_requests;
  std::vector<double> slice_patterns;
  /// Round trips of the primary requests completed in the window.
  std::vector<std::uint32_t> latency_ns;
  // Whole run, for the STATS cross-check and the transport split.
  std::uint64_t evals = 0;
  std::uint64_t eval_patterns = 0;
  std::uint64_t sims = 0;
  std::uint64_t sim_patterns = 0;
  std::uint64_t verifies = 0;
  std::uint64_t loads = 0;
  std::uint64_t primary_count = 0;
  double primary_rtt_sum_us = 0;

  void wrong(const std::string& what) {
    if (correct) {
      first_error = what;
    }
    correct = false;
  }

  /// A response that is not OK is a failed operation; returns true
  /// when the response is OK and should be checked further.
  bool accept(const std::string& response, const std::string& request) {
    if (response.rfind("OK", 0) == 0) {
      return true;
    }
    ++failed;
    if (first_error.empty()) {
      first_error = "request '" + request.substr(0, 60) + "' got '" +
                    response.substr(0, 120) + "'";
    }
    return false;
  }

  void merge(const Tally& t) {
    attempted += t.attempted;
    failed += t.failed;
    if (!t.correct) {
      wrong(t.first_error);
    } else if (first_error.empty()) {
      first_error = t.first_error;
    }
    slice_requests.resize(std::max(slice_requests.size(),
                                   t.slice_requests.size()));
    slice_patterns.resize(slice_requests.size());
    for (std::size_t k = 0; k < t.slice_requests.size(); ++k) {
      slice_requests[k] += t.slice_requests[k];
      slice_patterns[k] += t.slice_patterns[k];
    }
    latency_ns.insert(latency_ns.end(), t.latency_ns.begin(),
                      t.latency_ns.end());
    evals += t.evals;
    eval_patterns += t.eval_patterns;
    sims += t.sims;
    sim_patterns += t.sim_patterns;
    verifies += t.verifies;
    loads += t.loads;
    primary_count += t.primary_count;
    primary_rtt_sum_us += t.primary_rtt_sum_us;
  }
};

/// The measured window: `slices` whole seconds from `start`, after
/// the warm-up. Clients stop sending at `end`.
struct Window {
  Clock::time_point start;
  Clock::time_point end;
  std::size_t slices = 0;
};

/// What one request carried, for the window accounting.
struct Step {
  std::uint64_t patterns = 0;
  bool primary = false;
};

/// Sends requests back to back until the window ends. `step(i)` sends
/// request i, checks its response, and says what it carried. Requests
/// are accounted to the 1-s slices their round trips overlap.
void closed_loop(const Window& window, Tally& tally,
                 const std::function<Step(std::uint64_t)>& step) {
  tally.slice_requests.assign(window.slices, 0);
  tally.slice_patterns.assign(window.slices, 0);
  for (std::uint64_t i = 0;; ++i) {
    const auto t0 = Clock::now();
    if (t0 >= window.end) {
      return;
    }
    const Step s = step(i);
    const auto t1 = Clock::now();
    ++tally.attempted;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        t1 - t0).count();
    if (s.primary) {
      ++tally.primary_count;
      tally.primary_rtt_sum_us += static_cast<double>(ns) / 1e3;
    }
    const double from = seconds_between(window.start, t0);
    const double to = seconds_between(window.start, t1);
    const auto slices = static_cast<double>(window.slices);
    for (double k = std::floor(std::max(from, 0.0)); k < std::min(to, slices);
         k += 1) {
      const double share =
          to > from ? (std::min(to, k + 1) - std::max(from, k)) / (to - from)
                    : 1.0;
      tally.slice_requests[static_cast<std::size_t>(k)] += share;
      tally.slice_patterns[static_cast<std::size_t>(k)] +=
          share * static_cast<double>(s.patterns);
    }
    if (s.primary && to >= 0 && to < slices) {
      tally.latency_ns.push_back(
          static_cast<std::uint32_t>(std::min<long long>(ns, 0xffffffffLL)));
    }
  }
}

Step send_eval(Conn& conn, const TextRequest& r, Tally& t) {
  const std::string response = conn.transact(r.line);
  if (t.accept(response, r.line)) {
    ++t.evals;
    t.eval_patterns += r.inputs.size();
    if (response != r.expected) {
      t.wrong("EVAL mismatch: sent '" + r.line.substr(0, r.line.size() - 1) +
              "', expected '" + r.expected + "', got '" + response + "'");
    }
  }
  return {r.inputs.size(), true};
}

Step send_evalb(Conn& conn, const BulkPayload& b, Tally& t) {
  conn.send_all(b.request);
  std::string response = conn.read_line();
  if (t.accept(response, "EVALB")) {
    ++t.evals;
    t.eval_patterns += kBulkPatterns;
    response += '\n';
    conn.read_exact(b.out_words.size() * sizeof(std::uint64_t), response);
    if (response != b.expected) {
      t.wrong("EVALB response differs from the oracle");
    }
  }
  return {kBulkPatterns, true};
}

/// Checks one SIM response: every token's output hex matches the oracle
/// and its phase delays are finite.
Step send_sim(Conn& conn, const TextRequest& r, Tally& t) {
  const std::string response = conn.transact(r.line);
  if (!t.accept(response, r.line)) {
    return {r.inputs.size(), false};
  }
  ++t.sims;
  t.sim_patterns += r.inputs.size();
  std::istringstream tokens(response.substr(2));
  std::string token;
  std::size_t k = 0;
  for (; tokens >> token; ++k) {
    const auto at = token.find('@');
    if (k >= r.outputs.size() || at == std::string::npos ||
        token.substr(0, at) != hex_digits(r.outputs[k], 2)) {
      t.wrong("SIM output mismatch in '" + response + "'");
      return {r.inputs.size(), false};
    }
    // A phase in which no row switches reports 0 (a plane-2 evaluate
    // that discharges no output row does), so each phase must be finite
    // and >= 0 and the whole cycle > 0.
    const char* p = token.c_str() + at + 1;
    double cycle = 0;
    for (int d = 0; d < 3; ++d) {
      char* endp = nullptr;
      const double delay = std::strtod(p, &endp);
      if (endp == p || !std::isfinite(delay) || delay < 0 ||
          (d < 2 && *endp != '/')) {
        t.wrong("SIM delay not finite and >= 0 in '" + token + "'");
        return {r.inputs.size(), false};
      }
      cycle += delay;
      p = endp + 1;
    }
    if (!(cycle > 0)) {
      t.wrong("SIM cycle delay not > 0 in '" + token + "'");
    }
  }
  if (k != r.outputs.size()) {
    t.wrong("SIM token count mismatch in '" + response + "'");
  }
  return {r.inputs.size(), false};
}

std::map<std::string, std::uint64_t> parse_stats(const std::string& line) {
  std::map<std::string, std::uint64_t> fields;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      fields[token.substr(0, eq)] = std::strtoull(token.c_str() + eq + 1,
                                                  nullptr, 10);
    }
  }
  return fields;
}

/// Prometheus text page -> series ("name{labels}") -> value.
std::map<std::string, double> parse_metrics(const std::string& page) {
  std::map<std::string, double> series;
  std::istringstream in(page);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const auto space = line.rfind(' ');
    if (space != std::string::npos) {
      series[line.substr(0, space)] = std::strtod(line.c_str() + space + 1,
                                                  nullptr);
    }
  }
  return series;
}

double series_sum(const std::map<std::string, double>& series,
                  const std::string& name) {
  double total = 0;
  for (const auto& [key, value] : series) {
    if (key == name || key.rfind(name + "{", 0) == 0) {
      total += value;
    }
  }
  return total;
}

double series_mean(const std::map<std::string, double>& series,
                   const std::string& name, const std::string& labels) {
  const auto sum = series.find(name + "_sum" + labels);
  const auto count = series.find(name + "_count" + labels);
  if (sum == series.end() || count == series.end() || count->second == 0) {
    return 0;
  }
  return sum->second / count->second;
}

/// A fixed spin, timed: a diagnostic of host speed drift, not a metric.
double calibration_spin_ms() {
  const auto t0 = Clock::now();
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const auto t1 = Clock::now();
  if (x == 0) {
    std::puts("");  // keeps the loop
  }
  return seconds_between(t0, t1) * 1e3;
}

// ---------------------------------------------------------------------
// Spans for the traced run.

class Tracer {
 public:
  struct Span {
    std::string name;
    int parent;
    double start_s;
    double end_s;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, const std::string& name)
        : tracer_(tracer), id_(tracer.open(name)) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { tracer_.close(id_); }
    int id() const { return id_; }

   private:
    Tracer& tracer_;
    int id_;
  };

  double seconds(int id) const {
    return spans_[id].end_s - spans_[id].start_s;
  }

  /// The span's duration minus the time its children cover (children
  /// run one after another on the tracing thread, so they never
  /// overlap each other).
  double self_seconds(int id) const {
    double self = seconds(id);
    for (const Span& s : spans_) {
      if (s.parent == id) {
        self -= s.end_s - s.start_s;
      }
    }
    return self;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[512];
      std::snprintf(line, sizeof line,
                    "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                    "\"start_s\": %.9f, \"end_s\": %.9f, \"self_s\": %.9f}\n",
                    i, s.name.c_str(), s.parent, s.start_s, s.end_s,
                    self_seconds(static_cast<int>(i)));
      out << line;
    }
  }

  /// Total and self time per span name, children indented under parents.
  void print_summary(std::FILE* out) const {
    std::fprintf(out, "%-44s %6s %12s %12s\n", "span", "count", "total_ms",
                 "self_ms");
    print_children(out, -1, 0);
  }

 private:
  int open(const std::string& name) {
    spans_.push_back({name, open_, now(), 0});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  void close(int id) {
    spans_[id].end_s = now();
    open_ = spans_[id].parent;
  }
  double now() const { return seconds_between(origin_, Clock::now()); }

  void print_children(std::FILE* out, int parent, int depth) const {
    std::vector<std::string> order;
    std::map<std::string, std::vector<int>> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent == parent) {
        if (by_name[spans_[i].name].empty()) {
          order.push_back(spans_[i].name);
        }
        by_name[spans_[i].name].push_back(static_cast<int>(i));
      }
    }
    for (const std::string& name : order) {
      double total = 0;
      double self = 0;
      for (const int id : by_name[name]) {
        total += seconds(id);
        self += self_seconds(id);
      }
      std::fprintf(out, "%*s%-*s %6zu %12.3f %12.3f\n", 2 * depth, "",
                   44 - 2 * depth, name.c_str(), by_name[name].size(),
                   total * 1e3, self * 1e3);
      if (depth < 3) {
        print_children(out, by_name[name].front(), depth + 1);
      }
    }
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int open_ = -1;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// ---------------------------------------------------------------------
// The per-layer timings of the traced run (in-process, after the live
// server has exited).

class LayerRun {
 public:
  LayerRun(Tracer& tracer, Tally& tally) : tracer_(tracer), tally_(tally) {}

  /// One span around one call; returns its seconds.
  double once(const std::string& name, const std::function<void()>& fn) {
    const int id = timed(name, fn);
    return tracer_.seconds(id);
  }

  /// Median of `reps` spans of one call each, under a ".reps" parent.
  double median_of_reps(const std::string& name, int reps,
                        const std::function<void()>& fn) {
    std::vector<double> times;
    {
      const Tracer::Scope parent(tracer_, name + ".reps");
      for (int r = 0; r < reps; ++r) {
        times.push_back(tracer_.seconds(timed(name, fn)));
      }
    }
    return median(times);
  }

  /// One span around `calls` back-to-back calls; returns seconds per
  /// call.
  double per_call(const std::string& name, std::uint64_t calls,
                  const std::function<void(std::uint64_t)>& fn) {
    const int id = timed(name, [&] {
      for (std::uint64_t i = 0; i < calls; ++i) {
        fn(i);
      }
    });
    return tracer_.seconds(id) / static_cast<double>(calls);
  }

  void check(bool ok, const std::string& what) {
    ++tally_.attempted;
    if (!ok) {
      tally_.wrong("traced run: " + what);
    }
  }

 private:
  int timed(const std::string& name, const std::function<void()>& fn) {
    int id = 0;
    {
      const Tracer::Scope span(tracer_, name);
      id = span.id();
      fn();
    }
    return id;
  }

  Tracer& tracer_;
  Tally& tally_;
};

std::vector<std::uint64_t> batch_words(const ambit::logic::PatternBatch& b) {
  std::vector<std::uint64_t> words(b.total_words());
  b.store_words(words.data(), words.size());
  return words;
}

std::vector<Metric> run_layers(Tracer& tracer, Tally& tally,
                               const std::string& main_pla,
                               const std::vector<BulkPayload>& bulk,
                               const std::vector<TextRequest>& evals) {
  namespace lg = ambit::logic;
  namespace es = ambit::espresso;
  namespace sv = ambit::serve;
  LayerRun run(tracer, tally);
  std::vector<Metric> m;

  // espresso / core: the LOAD pipeline, call by call.
  lg::PlaFile pla;
  es::EspressoResult minimized;
  ambit::core::GnorPla gnor(0, 0, 1);
  {
    const Tracer::Scope pipeline(tracer, "load_pipeline");
    run.once("pla.read", [&] { pla = lg::read_pla_file(main_pla); });
    m.push_back({"espresso.minimize_s", run.once("espresso.minimize", [&] {
                   minimized = es::minimize(pla.onset, pla.dcset);
                 }), "s"});
    m.push_back({"gnor.map_cover_ms",
                 1e3 * run.median_of_reps("gnor.map_cover", 5, [&] {
                   gnor = ambit::core::GnorPla::map_cover(minimized.cover);
                 }), "ms"});
  }
  {
    const Tracer::Scope steps(tracer, "espresso.steps");
    lg::Cover off(0, 1), expanded(0, 1), irr(0, 1), reduced(0, 1);
    m.push_back({"espresso.offset_s", run.once("espresso.offset", [&] {
                   off = es::offset(pla.onset, pla.dcset);
                 }), "s"});
    m.push_back({"espresso.expand_s", run.once("espresso.expand", [&] {
                   expanded = es::expand(pla.onset, off);
                 }), "s"});
    m.push_back({"espresso.irredundant_s",
                 run.once("espresso.irredundant", [&] {
                   irr = es::irredundant(expanded, pla.dcset);
                 }), "s"});
    m.push_back({"espresso.reduce_s", run.once("espresso.reduce", [&] {
                   reduced = es::reduce(irr, pla.dcset);
                 }), "s"});
  }

  sv::Session session;
  m.push_back({"session.load_s", run.once("session.load", [&] {
                 session.load("m", main_pla);
               }), "s"});

  // logic/lane_kernels and core evaluate_batch, on the bulk payload.
  lg::PatternBatch batch(kInputs, kBulkPatterns);
  batch.load_words(bulk[0].in_words.data(), bulk[0].in_words.size());
  lg::PatternBatch seq(0, 0), u64(0, 0), pooled(0, 0);
  m.push_back({"evaluate_batch.bulk_seq_ms",
               1e3 * run.median_of_reps("evaluate_batch.bulk_seq", 9, [&] {
                 seq = gnor.evaluate_batch(batch);
               }), "ms"});
  const ambit::cpu::SimdTier tier = ambit::cpu::active_tier();
  ambit::cpu::force_tier(ambit::cpu::SimdTier::kScalar);
  m.push_back({"evaluate_batch.bulk_u64_ms",
               1e3 * run.median_of_reps("evaluate_batch.bulk_u64", 9, [&] {
                 u64 = gnor.evaluate_batch(batch);
               }), "ms"});
  ambit::cpu::force_tier(tier);
  ambit::ThreadPool pool(ambit::ThreadPool::default_workers());
  m.push_back({"evaluate_batch.bulk_pooled_ms",
               1e3 * run.median_of_reps("evaluate_batch.bulk_pooled", 9, [&] {
                 pooled = gnor.evaluate_batch(batch, pool);
               }), "ms"});
  const auto oracle_words = bulk[0].out_words;
  run.check(batch_words(seq) == oracle_words,
            "sequential evaluate_batch differs from the oracle");
  run.check(batch_words(u64) == oracle_words,
            "u64-tier evaluate_batch differs from the oracle");
  run.check(batch_words(pooled) == oracle_words,
            "pooled evaluate_batch differs from the oracle");

  std::vector<lg::PatternBatch> small;
  for (const TextRequest& r : evals) {
    lg::PatternBatch b(kInputs, r.inputs.size());
    for (std::size_t p = 0; p < r.inputs.size(); ++p) {
      for (int i = 0; i < kInputs; ++i) {
        b.set(p, i, (r.inputs[p] >> i) & 1);
      }
    }
    small.push_back(std::move(b));
  }
  // Folds every timed call's result in, so none can be optimized away.
  std::uint64_t sink = 0;
  m.push_back({"evaluate_batch.small_us",
               1e6 * run.per_call("evaluate_batch.small", 50000,
                                  [&](std::uint64_t i) {
                                    sink += gnor.evaluate_batch(
                                        small[i % small.size()])
                                        .lane(0)[0];
                                  }), "us"});
  {
    bool ok = true;
    for (std::size_t k = 0; k < small.size(); ++k) {
      const lg::PatternBatch out = gnor.evaluate_batch(small[k]);
      for (std::size_t p = 0; p < evals[k].outputs.size(); ++p) {
        for (int j = 0; j < kOutputs; ++j) {
          ok = ok && out.get(p, j) == (((evals[k].outputs[p] >> j) & 1) != 0);
        }
      }
    }
    run.check(ok, "small evaluate_batch differs from the oracle");
  }

  // util/ThreadPool.
  m.push_back({"thread_pool.parallel_for_empty_us",
               1e6 * run.per_call("thread_pool.parallel_for_empty", 5000,
                                  [&](std::uint64_t) {
                                    pool.parallel_for(
                                        0, kBulkWordsPerLane, 8,
                                        [](std::uint64_t, std::uint64_t) {});
                                  }), "us"});
  m.push_back({"thread_pool.submit_wait_us",
               1e6 * run.per_call("thread_pool.submit_wait", 20000,
                                  [&](std::uint64_t) {
                                    std::promise<void> done;
                                    pool.submit([&done] { done.set_value(); });
                                    done.get_future().wait();
                                  }), "us"});

  // serve/protocol.
  std::vector<std::string> lines;
  std::vector<std::string> tokens;
  for (const TextRequest& r : evals) {
    lines.push_back(r.line.substr(0, r.line.size() - 1));
    for (const std::uint32_t x : r.inputs) {
      tokens.push_back(hex_digits(x, 4));
    }
  }
  m.push_back({"protocol.parse_eval_ns",
               1e9 * run.per_call("protocol.parse_eval", 400000,
                                  [&](std::uint64_t i) {
                                    sink += sv::parse_request(
                                        lines[i % lines.size()])
                                        .patterns.size();
                                  }), "ns"});
  m.push_back({"protocol.hex_decode_ns",
               1e9 * run.per_call("protocol.hex_decode", 1000000,
                                  [&](std::uint64_t i) {
                                    sink += sv::hex_decode(
                                        tokens[i % tokens.size()], kInputs)[0];
                                  }), "ns"});
  std::vector<std::vector<bool>> out_bits;
  for (std::uint32_t y = 0; y < (1u << kOutputs); ++y) {
    std::vector<bool> bits(kOutputs);
    for (int j = 0; j < kOutputs; ++j) {
      bits[j] = ((y >> j) & 1) != 0;
    }
    out_bits.push_back(bits);
  }
  m.push_back({"protocol.hex_encode_ns",
               1e9 * run.per_call("protocol.hex_encode", 1000000,
                                  [&](std::uint64_t i) {
                                    sink += sv::hex_encode(
                                        out_bits[i % out_bits.size()]).size();
                                  }), "ns"});
  run.check(sink != 0, "protocol calls produced nothing");

  // serve/conn_state: Server::serve_chunks over recorded request bytes.
  sv::Server server(session);
  const auto replay = [&](const std::string& name, const std::string& bytes,
                          const std::string& expected,
                          std::uint64_t requests) {
    std::string out;
    std::size_t offset = 0;
    std::uint64_t served = 0;
    const double s = run.once(name, [&] {
      served = server.serve_chunks(
          [&] {
            const std::size_t n = std::min<std::size_t>(65536,
                                                        bytes.size() - offset);
            std::string chunk = bytes.substr(offset, n);
            offset += n;
            return chunk;
          },
          out);
    });
    run.check(served == requests && out == expected,
              name + " responses differ from the oracle");
    return s / static_cast<double>(requests);
  };
  {
    std::string bytes;
    std::string expected;
    for (int rep = 0; rep < 4; ++rep) {
      for (const TextRequest& r : evals) {
        bytes += r.line;
        expected += r.expected + "\n";
      }
    }
    m.push_back({"serve_chunks.eval_us_per_request",
                 1e6 * replay("serve_chunks.eval", bytes, expected,
                              4 * evals.size()), "us"});
  }
  {
    std::string bytes;
    std::string expected;
    for (int rep = 0; rep < 4; ++rep) {
      for (const BulkPayload& b : bulk) {
        bytes += b.request;
        expected += b.expected;
      }
    }
    m.push_back({"serve_chunks.evalb_us_per_request",
                 1e6 * replay("serve_chunks.evalb", bytes, expected,
                              4 * bulk.size()), "us"});
  }

  // simulate and TruthTable verify.
  {
    constexpr std::uint64_t kSimPatterns = 512;
    const lg::PatternBatch sim_in = batch.slice(0, kSimPatterns);
    const ambit::simulate::GnorPlaSimulator simulator(
        gnor, ambit::tech::default_cnfet_electrical());
    ambit::simulate::BatchSimResult result(0, 0);
    m.push_back({"simulate.sim_us_per_pattern",
                 1e6 * run.once("simulate.simulate_batch", [&] {
                   result = simulator.simulate_batch(sim_in);
                 }) / kSimPatterns, "us"});
    bool ok = result.all_definite();
    for (std::uint64_t p = 0; p < kSimPatterns && ok; ++p) {
      const double phases[] = {result.precharge_delay_s[p],
                               result.plane1_eval_delay_s[p],
                               result.plane2_eval_delay_s[p]};
      for (const double d : phases) {
        ok = ok && std::isfinite(d) && d >= 0;
      }
      ok = ok && result.cycle_s(p) > 0;
      for (int j = 0; j < kOutputs && ok; ++j) {
        const std::uint64_t word =
            bulk[0].out_words[j * kBulkWordsPerLane + p / 64];
        ok = result.outputs.get(p, j) == (((word >> (p % 64)) & 1) != 0);
      }
    }
    run.check(ok, "simulate_batch outputs or delays wrong");
  }
  bool equivalent = false;
  m.push_back({"session.verify_ms", 1e3 * run.once("session.verify", [&] {
                 equivalent = session.verify("m");
               }), "ms"});
  run.check(equivalent, "Session::verify reports the mapped array wrong");
  return m;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string server;
  std::string workdir;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = std::atoi(value.c_str());
    } else if (key == "--server") {
      a.server = value;
    } else if (key == "--workdir") {
      a.workdir = value;
    } else {
      fail("unknown argument " + key);
    }
  }
  if ((argc - 1) % 2 != 0 || a.server.empty() || a.workdir.empty() ||
      !(a.seconds > 0) || (a.trace != 0 && a.trace != 1) ||
      (a.workload != "bulk_evalb" && a.workload != "small_eval" &&
       a.workload != "reload_mix")) {
    fail("usage: servebench_client --workload bulk_evalb|small_eval|"
         "reload_mix --seed <n> --seconds <s> --trace 0|1 --server <path> "
         "--workdir <dir>");
  }
  return a;
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return static_cast<int>(std::thread::hardware_concurrency());
  }
  return CPU_COUNT(&set);
}

/// Nearest-rank quantile of sorted raw samples.
double quantile(const std::vector<std::uint32_t>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

void print_result(const Tally& t, const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") +
                     (t.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(t.attempted) +
                     ", \"failed\": " + std::to_string(t.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

Clock::duration as_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

int run(const Args& a, Clock::time_point process_start) {
  const int cpus = online_cpus();
  const bool bulk = a.workload == "bulk_evalb";
  const bool bringup = a.workload == "reload_mix";
  const int small_conns =
      a.workload == "small_eval" ? cpus : bringup ? std::max(1, cpus - 1) : 0;

  // Set-up: covers, server spawn, LOAD, first answer.
  const Sop main_sop = generate_cover(stream(kCoverSeed, 1), kMainShape);
  const std::string main_pla = a.workdir + "/main.pla";
  write_pla(main_pla, main_sop);
  Sop reload_sop;
  const std::string reload_pla = a.workdir + "/reload.pla";
  if (bringup) {
    reload_sop = generate_cover(stream(kCoverSeed, 2), kReloadShape);
    write_pla(reload_pla, reload_sop);
  }
  ServerProcess server(a.server, a.workdir + "/ambit_serve.log");
  const int port = server.wait_for_port();
  auto control = std::make_unique<Conn>(port);
  Tally total;
  const std::string loaded = control->transact("LOAD m " + main_pla + "\n");
  ++total.attempted;
  if (loaded.rfind("OK loaded m: 16 inputs, 8 outputs, ", 0) != 0) {
    fail("LOAD of the main cover failed: " + loaded);
  }
  ++total.loads;
  Rng probe_rng = stream(a.seed, 3);
  send_eval(*control, make_text_request(probe_rng, main_sop, "EVAL", "m", 1),
            total);
  ++total.attempted;
  const double setup_s = seconds_between(process_start, Clock::now());

  // Request streams and connections.
  std::vector<std::vector<TextRequest>> rings;
  for (int c = 0; c < std::max(small_conns, a.trace); ++c) {
    rings.push_back(make_eval_ring(a.seed, c, main_sop));
  }
  std::vector<BulkPayload> payloads;
  if (bulk || a.trace == 1) {
    for (int k = 0; k < kBulkPayloads; ++k) {
      payloads.push_back(make_bulk(a.seed, k, main_sop));
    }
  }
  std::vector<TextRequest> sim_ring;
  Rng sim_rng = stream(a.seed, 4);
  for (int i = 0; bringup && i < 256; ++i) {
    sim_ring.push_back(make_text_request(sim_rng, reload_sop, "SIM", "r", 4));
  }
  const std::string reload_line = "LOAD r " + reload_pla + "\n";

  const std::size_t n = static_cast<std::size_t>(small_conns) + bulk + bringup;
  std::vector<Tally> tallies(n);
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<std::function<Step(std::uint64_t)>> steps;
  for (int c = 0; c < small_conns; ++c) {
    conns.push_back(std::make_unique<Conn>(port));
    Conn& conn = *conns.back();
    Tally& t = tallies[steps.size()];
    const std::vector<TextRequest>& ring = rings[c];
    steps.push_back([&conn, &t, &ring](std::uint64_t i) {
      return send_eval(conn, ring[i % ring.size()], t);
    });
  }
  if (bulk) {
    conns.push_back(std::make_unique<Conn>(port));
    Conn& conn = *conns.back();
    Tally& t = tallies[steps.size()];
    steps.push_back([&conn, &t, &payloads](std::uint64_t i) {
      return send_evalb(conn, payloads[i % payloads.size()], t);
    });
  }
  if (bringup) {
    // The bring-up loop: LOAD the reload cover, VERIFY it, SIM it.
    conns.push_back(std::make_unique<Conn>(port));
    Conn& conn = *conns.back();
    Tally& t = tallies[steps.size()];
    steps.push_back([&conn, &t, &reload_line, &sim_ring](std::uint64_t i) {
      if (i % 3 == 0) {
        const std::string r = conn.transact(reload_line);
        if (t.accept(r, reload_line)) {
          ++t.loads;
          if (r.rfind("OK loaded r: 16 inputs, 8 outputs, ", 0) != 0) {
            t.wrong("LOAD r answered '" + r + "'");
          }
        }
        return Step{};
      }
      if (i % 3 == 1) {
        const std::string r = conn.transact("VERIFY r\n");
        if (t.accept(r, "VERIFY r")) {
          ++t.verifies;
          if (r != "OK verified r: equivalent over 65536 patterns") {
            t.wrong("VERIFY r answered '" + r + "'");
          }
        }
        return Step{};
      }
      return send_sim(conn, sim_ring[(i / 3) % sim_ring.size()], t);
    });
  }

  // Warm-up, then the measured window, bracketed by the calibration
  // spin.
  const double spin_before_ms = calibration_spin_ms();
  Window window;
  window.slices =
      static_cast<std::size_t>(std::max(1.0, std::floor(a.seconds)));
  window.start = Clock::now() + as_duration(kWarmupSeconds);
  window.end = window.start + as_duration(static_cast<double>(window.slices));
  std::vector<std::string> errors(n);
  {
    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < n; ++k) {
      threads.emplace_back([&, k] {
        try {
          closed_loop(window, tallies[k], steps[k]);
        } catch (const std::exception& e) {
          errors[k] = e.what();
        }
      });
    }
    for (std::thread& th : threads) {
      th.join();
    }
  }
  const double spin_after_ms = calibration_spin_ms();
  for (const std::string& e : errors) {
    if (!e.empty()) {
      fail("client thread: " + e);
    }
  }
  conns.clear();
  for (const Tally& t : tallies) {
    total.merge(t);
  }

  // STATS must equal the client's own tallies.
  const std::string stats = control->transact("STATS\n");
  ++total.attempted;
  auto fields = parse_stats(stats);
  const std::pair<const char*, std::uint64_t> expect[] = {
      {"loads", total.loads},
      {"evals", total.evals},
      {"patterns", total.eval_patterns},
      {"sims", total.sims},
      {"sim_patterns", total.sim_patterns},
      {"verifies", total.verifies}};
  for (const auto& [key, value] : expect) {
    if (fields.count(key) == 0 || fields[key] != value) {
      total.wrong("STATS " + std::string(key) + " is " +
                  std::to_string(fields[key]) + ", the client counted " +
                  std::to_string(value));
    }
  }
  std::map<std::string, double> series;
  if (a.trace == 1) {
    control->send_all("METRICS\n");
    const std::string header = control->read_line();
    ++total.attempted;
    if (header.rfind("OK METRICS ", 0) != 0) {
      fail("METRICS answered '" + header + "'");
    }
    std::string page;
    control->read_exact(std::strtoull(header.c_str() + 11, nullptr, 10), page);
    series = parse_metrics(page);
    std::ofstream(a.workdir + "/metrics-" + a.workload + "-" +
                  std::to_string(a.seed) + ".prom")
        << page;
  }
  const std::string bye = control->transact("SHUTDOWN\n");
  ++total.attempted;
  if (bye != "OK shutting down") {
    total.wrong("SHUTDOWN answered '" + bye + "'");
  }
  control.reset();
  const rusage usage = server.wait_exit(30);
  const double server_cpu_us =
      1e6 * static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
      static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
  const std::uint64_t server_requests = total.attempted;

  std::printf("calibration spin: before %.1f ms, after %.1f ms\n",
              spin_before_ms, spin_after_ms);
  std::printf("nproc %d, pool workers (STATS) %llu, client connections %zu\n",
              cpus, static_cast<unsigned long long>(fields["workers"]), n);
  if (!total.first_error.empty()) {
    std::fprintf(stderr, "servebench: %s\n", total.first_error.c_str());
  }

  // Exact quantiles over every raw sample of the window.
  std::vector<std::uint32_t>& latency_ns = total.latency_ns;
  std::sort(latency_ns.begin(), latency_ns.end());
  const double p50_us = quantile(latency_ns, 0.50) / 1e3;
  const double p99_us = quantile(latency_ns, 0.99) / 1e3;
  std::vector<Metric> metrics;
  if (a.trace == 0) {
    const std::vector<double>& rates = total.slice_requests;
    std::vector<double> pattern_rates;
    for (const double p : total.slice_patterns) {
      pattern_rates.push_back(p / 1e6);
    }
    std::fprintf(stderr, "servebench: completions per 1-s slice:");
    for (const double r : rates) {
      std::fprintf(stderr, " %.0f", r);
    }
    std::fprintf(stderr, "\n");
    metrics = {
        {"setup_s", setup_s, "s"},
        {"requests_per_s", median(rates), "req/s"},
        {"patterns_per_s", median(pattern_rates), "Mpatterns/s"},
        {"latency_p50_us", p50_us, "us"},
        {"server_cpu_us_per_request",
         server_cpu_us / static_cast<double>(server_requests), "us"},
    };
  } else {
    // serve/event_loop figures: exact means from the _sum series, not
    // buckets. A phase time is a difference of whole-microsecond
    // timestamps and only phases that read > 0 are observed, so a
    // phase's own _count misses every request whose phase did not cross
    // a microsecond boundary. Its _sum over every request served is
    // unbiased, even for phases well below 1 us.
    const std::string verb = bulk ? "EVALB" : "EVAL";
    const double served = series_sum(series, "ambit_serve_requests_total");
    const auto phase_mean = [&](const char* p) {
      const auto sum = series.find(std::string("ambit_serve_phase_us_sum") +
                                   "{phase=\"" + p + "\"}");
      return sum == series.end() ? 0.0 : sum->second / served;
    };
    const double client_mean_us =
        total.primary_rtt_sum_us / static_cast<double>(total.primary_count);
    metrics = {
        {"server.queue_wait_us_mean", phase_mean("queue_wait"), "us"},
        {"server.evaluate_us_mean", phase_mean("evaluate"), "us"},
        {"server.parse_us_mean", phase_mean("parse"), "us"},
        {"server.serialize_us_mean", phase_mean("serialize"), "us"},
        {"transport.us_per_request",
         client_mean_us - series_mean(series, "ambit_serve_request_us",
                                      "{verb=\"" + verb + "\"}"),
         "us"},
        {"loop.wakeups_per_request",
         series_sum(series, "ambit_serve_loop_iterations_total") / served,
         "count/req"},
        {"loop.ready_events_per_wake",
         series_mean(series, "ambit_serve_loop_ready_events", ""),
         "count/wake"},
        {"server.peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
         "MiB"},
        {"client.latency_p99_us", p99_us, "us"},
    };
    Tracer tracer;
    const std::vector<Metric> layers =
        run_layers(tracer, total, main_pla, payloads, rings[0]);
    metrics.insert(metrics.end(), layers.begin(), layers.end());
    tracer.write(a.workdir + "/trace-" + a.workload + "-" +
                 std::to_string(a.seed) + ".jsonl");
    tracer.print_summary(stderr);
  }
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-36s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit);
  }
  print_result(total, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  try {
    return run(parse_args(argc, argv), process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
}
