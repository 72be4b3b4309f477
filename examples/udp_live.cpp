// udp_live — the detector over real UDP sockets on loopback, in real time.
//
// Five detector instances run inside this one binary (each with its own
// socket and threads — architecturally identical to five separate daemons).
// After a second of steady state we crash-stop p4 and watch the survivors
// converge on suspecting it, each at its first unanswered query round.
//
// Build & run:   ./build/examples/udp_live
#include <chrono>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "transport/realtime_detector.h"
#include "transport/udp_transport.h"

using namespace mmrfd;
using namespace std::chrono_literals;

int main() {
  constexpr std::uint32_t kN = 5;
  constexpr std::uint16_t kBasePort = 39400;

  std::vector<std::unique_ptr<transport::UdpTransport>> sockets;
  std::vector<std::unique_ptr<transport::RealTimeDetector>> nodes;
  for (std::uint32_t i = 0; i < kN; ++i) {
    sockets.push_back(std::make_unique<transport::UdpTransport>(
        transport::UdpConfig{ProcessId{i}, kN, kBasePort}));
    transport::RealTimeConfig cfg;
    cfg.detector.self = ProcessId{i};
    cfg.detector.n = kN;
    cfg.detector.f = 1;
    cfg.pacing = from_millis(50);
    nodes.push_back(
        std::make_unique<transport::RealTimeDetector>(*sockets[i], cfg));
  }

  try {
    for (auto& n : nodes) n->start();
  } catch (const std::exception& e) {
    std::cerr << "cannot bind loopback UDP ports " << kBasePort << ".."
              << kBasePort + kN - 1 << ": " << e.what() << "\n";
    return 1;
  }

  auto print_state = [&](const std::string& label, std::uint32_t alive) {
    std::cout << label << "\n";
    for (std::uint32_t i = 0; i < alive; ++i) {
      std::cout << "  p" << i << ": " << nodes[i]->rounds_completed()
                << " rounds, suspects {";
      for (ProcessId s : nodes[i]->suspected()) std::cout << " p" << s.value;
      std::cout << " }\n";
    }
  };

  std::this_thread::sleep_for(1s);
  print_state("after 1 s, all 5 alive:", kN);

  std::cout << "\nstopping p4 (crash-stop)...\n";
  nodes[4]->stop();

  // Survivors need one unanswered query round each to suspect p4.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  auto all_suspect = [&] {
    for (std::uint32_t i = 0; i < kN - 1; ++i) {
      if (!nodes[i]->is_suspected(ProcessId{4})) return false;
    }
    return true;
  };
  while (!all_suspect() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  print_state(all_suspect() ? "\np4 suspected by all survivors:"
                            : "\ntimed out waiting (loaded machine?):",
              kN - 1);

  for (std::uint32_t i = 0; i < kN - 1; ++i) nodes[i]->stop();
  std::cout << "\ndone — not a single timeout was configured.\n";
  return all_suspect() ? 0 : 1;
}
