// Socket / netlink / KVM / TTY / io_uring / block / rdma / aio / coredump
// subsystem behaviour and bug reproducers.

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace healer {
namespace {

// ---- sockets ----

class SocketTest : public ::testing::Test {
 protected:
  KernelHarness h{KernelVersion::kV5_11};

  int64_t Tcp() { return h.Call("socket$tcp", 2, 1, 0); }
  int64_t Udp() { return h.Call("socket$udp", 2, 2, 0); }
};

TEST_F(SocketTest, ListenBeforeBindIsEdestaddrreq) {
  // The paper's introduction example.
  const int64_t fd = Tcp();
  EXPECT_EQ(h.Call("listen", fd, 8), -kEDESTADDRREQ);
}

TEST_F(SocketTest, FullAcceptFlow) {
  const int64_t server = Tcp();
  ASSERT_EQ(h.Call("bind", server, h.StageSockaddr(8080), 8), 0);
  ASSERT_EQ(h.Call("listen", server, 8), 0);
  const int64_t client = Tcp();
  ASSERT_EQ(h.Call("connect", client, h.StageSockaddr(8080), 8), 0);
  const int64_t conn = h.Call("accept4", server, 0);
  ASSERT_GE(conn, 0);
  EXPECT_EQ(h.Call("accept4", server, 0), -kEAGAIN);  // Queue drained.
}

TEST_F(SocketTest, ConnectRefusedWithoutListener) {
  const int64_t fd = Tcp();
  EXPECT_EQ(h.Call("connect", fd, h.StageSockaddr(9999), 8),
            -kECONNREFUSED);
}

TEST_F(SocketTest, SendRecvThroughLoopback) {
  const int64_t server = Tcp();
  h.Call("bind", server, h.StageSockaddr(80), 8);
  h.Call("listen", server, 4);
  const int64_t client = Tcp();
  ASSERT_EQ(h.Call("connect", client, h.StageSockaddr(80), 8), 0);
  EXPECT_EQ(h.Call("sendto", client, h.Stage("data", 4), 4, 0, 0, 0), 4);
  // Data lands in the listener's rx buffer in our loopback model.
  const uint64_t out = h.OutBuf(16);
  EXPECT_EQ(h.Call("recvfrom", server, out, 16, 0), 4);
}

TEST_F(SocketTest, BindConflictAndReuseaddr) {
  const int64_t a = Tcp();
  ASSERT_EQ(h.Call("bind", a, h.StageSockaddr(1000), 8), 0);
  ASSERT_EQ(h.Call("listen", a, 1), 0);
  const int64_t b = Tcp();
  EXPECT_EQ(h.Call("bind", b, h.StageSockaddr(1000), 8), -kEADDRINUSE);
  const int64_t c = Tcp();
  EXPECT_EQ(h.Call("setsockopt$REUSEADDR", c, 1, h.StageU32(1), 4), 0);
  EXPECT_EQ(h.Call("bind", c, h.StageSockaddr(1000), 8), 0);
}

TEST_F(SocketTest, UdpSendWithoutDestination) {
  const int64_t fd = Udp();
  EXPECT_EQ(h.Call("sendto", fd, h.Stage("x", 1), 1, 0, 0, 0),
            -kEDESTADDRREQ);
  // With MSG_CONFIRM the missing-destination path has a logic bug.
  EXPECT_EQ(h.Call("sendto", fd, h.Stage("x", 1), 1, 0x800, 0, 0), -kEIO);
  EXPECT_TRUE(h.kernel().crashed());
  EXPECT_EQ(h.kernel().crash().bug, BugId::kSendtoNoDestBug);
}

TEST_F(SocketTest, QdiscStabOobNeedsSockoptFirst) {
  const int64_t fd = Udp();
  h.Call("connect", fd, h.StageSockaddr(5), 8);
  // Without the stab: large send is fine.
  EXPECT_EQ(h.Call("sendto", fd, h.OutBuf(600), 600, 0, 0, 0), 600);
  ASSERT_EQ(h.Call("setsockopt$STAB", fd, 1, h.StageU32(64), 4), 0);
  EXPECT_EQ(h.Call("sendto", fd, h.OutBuf(600), 600, 0, 0, 0), -kEIO);
  EXPECT_TRUE(h.kernel().crashed());
  EXPECT_EQ(h.kernel().crash().bug, BugId::kQdiscCalculatePktLenOob);
}

TEST_F(SocketTest, MacvlanUafChain) {
  const int64_t fd = Udp();
  ASSERT_EQ(h.Call("ioctl$SIOCADDMACVLAN", fd, 0x8938, 0), 0);
  ASSERT_EQ(h.Call("setsockopt$BINDTODEVICE", fd, 1,
                   h.StageString("macvlan0"), 9),
            0);
  ASSERT_EQ(h.Call("ioctl$SIOCDELMACVLAN", fd, 0x8939, 0), 0);
  h.Call("connect", fd, h.StageSockaddr(5), 8);
  EXPECT_EQ(h.Call("sendto", fd, h.Stage("x", 1), 1, 0, 0, 0), -kEIO);
  EXPECT_TRUE(h.kernel().crashed());
  EXPECT_EQ(h.kernel().crash().bug, BugId::kMacvlanBroadcastUaf);
}

TEST_F(SocketTest, BindToMissingMacvlanFails) {
  const int64_t fd = Udp();
  EXPECT_EQ(h.Call("setsockopt$BINDTODEVICE", fd, 1,
                   h.StageString("macvlan0"), 9),
            -kENODEV);
}

TEST_F(SocketTest, LlcpGetnameNullDeref) {
  KernelHarness h54(KernelVersion::kV5_4);
  const int64_t fd = h54.Call("socket$llcp", 39, 2, 1);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(h54.Call("connect", fd, h54.StageSockaddr(3), 8), 0);
  ASSERT_EQ(h54.Call("shutdown", fd, 0), 0);
  EXPECT_EQ(h54.Call("getsockname", fd, h54.OutBuf(8)), -kEFAULT);
  EXPECT_TRUE(h54.kernel().crashed());
  EXPECT_EQ(h54.kernel().crash().bug, BugId::kLlcpSockGetname);
}

TEST_F(SocketTest, RdsConnectUnboundNullDeref) {
  KernelHarness h56(KernelVersion::kV5_6);
  const int64_t fd = h56.Call("socket$rds", 21, 5, 0);
  EXPECT_EQ(h56.Call("connect", fd, h56.StageSockaddr(3), 8), -kEFAULT);
  EXPECT_TRUE(h56.kernel().crashed());
  EXPECT_EQ(h56.kernel().crash().bug, BugId::kRdsIbAddConnNullDeref);
}

TEST_F(SocketTest, L2capReconnectRefcountBug) {
  const int64_t fd = h.Call("socket$l2cap", 31, 5, 0);
  ASSERT_EQ(h.Call("connect", fd, h.StageSockaddr(3), 8), 0);
  ASSERT_EQ(h.Call("shutdown", fd, 0), 0);
  EXPECT_EQ(h.Call("connect", fd, h.StageSockaddr(3), 8), -kEIO);
  EXPECT_TRUE(h.kernel().crashed());
  EXPECT_EQ(h.kernel().crash().bug, BugId::kL2capChanPutRefcount);
}

TEST_F(SocketTest, RxrpcDoubleBindLeak) {
  KernelHarness h56(KernelVersion::kV5_6);
  const int64_t fd = h56.Call("socket$rxrpc", 33, 5, 0);
  ASSERT_EQ(h56.Call("bind", fd, h56.StageSockaddr(100), 8), 0);
  EXPECT_EQ(h56.Call("bind", fd, h56.StageSockaddr(101), 8), -kENOMEM);
  EXPECT_TRUE(h56.kernel().crashed());
  EXPECT_EQ(h56.kernel().crash().bug, BugId::kRxrpcLookupLocalLeak);
}

TEST_F(SocketTest, HugeOptlenOob) {
  const int64_t fd = Tcp();
  EXPECT_EQ(h.Call("setsockopt$SNDBUF", fd, 1, h.OutBuf(128), 100), -kEIO);
  EXPECT_TRUE(h.kernel().crashed());
  EXPECT_EQ(h.kernel().crash().bug, BugId::kSockoptHugeOptlenOob);
}

// ---- netlink ----

class NetlinkTest : public ::testing::Test {
 protected:
  KernelHarness h{KernelVersion::kV5_11};
  int64_t fd_ = -1;

  void SetUp() override {
    fd_ = h.Call("socket$nl802154", 16, 3, 20);
    ASSERT_GE(fd_, 0);
    ASSERT_EQ(h.Call("bind$netlink", fd_, h.OutBuf(8), 8), 0);
  }

  // Builds one TLV attribute {len, type, payload}.
  static std::vector<uint8_t> Attr(uint16_t type,
                                   const std::vector<uint8_t>& payload) {
    const uint16_t len = static_cast<uint16_t>(4 + payload.size());
    std::vector<uint8_t> out = {
        static_cast<uint8_t>(len & 0xff), static_cast<uint8_t>(len >> 8),
        static_cast<uint8_t>(type & 0xff), static_cast<uint8_t>(type >> 8)};
    out.insert(out.end(), payload.begin(), payload.end());
    while (out.size() % 4 != 0) {
      out.push_back(0);
    }
    return out;
  }

  int64_t Send(const std::string& call, const std::vector<uint8_t>& msg) {
    return h.Call(call, fd_, h.Stage(msg.data(), msg.size()), msg.size());
  }
};

TEST_F(NetlinkTest, AddKeyRequiresIdAndBytes) {
  auto msg = Attr(2, {1, 2});  // Key id only.
  EXPECT_EQ(Send("sendmsg$nl802154_add_key", msg), -kEINVAL);
  auto full = Attr(2, {1, 2});
  const auto key = Attr(3, std::vector<uint8_t>(16, 0xaa));
  full.insert(full.end(), key.begin(), key.end());
  EXPECT_EQ(Send("sendmsg$nl802154_add_key", full), 0);
}

TEST_F(NetlinkTest, MalformedTlvRejected) {
  std::vector<uint8_t> bad = {2, 0, 2, 0};  // len 2 < header size.
  EXPECT_EQ(Send("sendmsg$nl802154_add_key", bad), -kEINVAL);
}

TEST_F(NetlinkTest, DelKeyOnEmptyTableNullDeref) {
  KernelHarness h54(KernelVersion::kV5_4);
  const int64_t fd = h54.Call("socket$nl802154", 16, 3, 20);
  const auto msg = Attr(2, {1, 2});
  EXPECT_EQ(h54.Call("sendmsg$nl802154_del_key", fd,
                     h54.Stage(msg.data(), msg.size()), msg.size()),
            -kEFAULT);
  EXPECT_TRUE(h54.kernel().crashed());
  EXPECT_EQ(h54.kernel().crash().bug, BugId::kNl802154DelLlsecKey);
}

TEST_F(NetlinkTest, SetParamsMissingNestedKeyIdNullDeref) {
  // Sec-level attribute whose payload lacks the nested key-id attribute.
  const auto msg = Attr(4, {0, 0, 0, 0});
  EXPECT_EQ(Send("sendmsg$nl802154_set_params", msg), -kEFAULT);
  EXPECT_TRUE(h.kernel().crashed());
  EXPECT_EQ(h.kernel().crash().bug, BugId::kIeee802154LlsecParseKeyId);
}

TEST_F(NetlinkTest, SetParamsWithNestedKeyIdOk) {
  const auto nested = Attr(2, {7, 7});
  const auto msg = Attr(4, nested);
  EXPECT_EQ(Send("sendmsg$nl802154_set_params", msg), 0);
  EXPECT_FALSE(h.kernel().crashed());
}

TEST_F(NetlinkTest, DeletedKeyPoisonsWpanTx) {
  auto add = Attr(2, {1, 2});
  const auto key = Attr(3, std::vector<uint8_t>(16, 0xbb));
  add.insert(add.end(), key.begin(), key.end());
  ASSERT_EQ(Send("sendmsg$nl802154_add_key", add), 0);
  ASSERT_EQ(Send("sendmsg$nl802154_del_key", Attr(2, {1, 2})), 0);
  // Now transmit on an 802.15.4 socket -> use-after-free.
  const int64_t wpan = h.Call("socket$ieee802154", 36, 2, 0);
  h.Call("connect", wpan, h.StageSockaddr(9), 8);
  EXPECT_EQ(h.Call("sendto", wpan, h.Stage("f", 1), 1, 0, 0, 0), -kEIO);
  EXPECT_TRUE(h.kernel().crashed());
  EXPECT_EQ(h.kernel().crash().bug, BugId::kIeee802154TxUaf);
}

// ---- KVM ----

class KvmTest : public ::testing::Test {
 protected:
  KernelHarness h{KernelVersion::kV5_11};
  int64_t kvm_ = -1;
  int64_t vm_ = -1;
  int64_t vcpu_ = -1;

  void SetUp() override {
    kvm_ = h.Call("openat$kvm", h.StageString("/dev/kvm"), 2);
    ASSERT_GE(kvm_, 0);
    vm_ = h.Call("ioctl$KVM_CREATE_VM", kvm_, 0xae01, 0);
    ASSERT_GE(vm_, 0);
    vcpu_ = h.Call("ioctl$KVM_CREATE_VCPU", vm_, 0xae41, 0);
    ASSERT_GE(vcpu_, 0);
  }

  int64_t SetMemslot(uint32_t slot, uint64_t gpa, uint64_t size) {
    uint8_t raw[32] = {0};
    std::memcpy(raw, &slot, 4);
    std::memcpy(raw + 8, &gpa, 8);
    std::memcpy(raw + 16, &size, 8);
    return h.Call("ioctl$KVM_SET_USER_MEMORY_REGION", vm_, 0x4020ae46,
                  h.Stage(raw, sizeof(raw)));
  }
};

TEST_F(KvmTest, RunWithoutMemoryFaults) {
  EXPECT_EQ(h.Call("ioctl$KVM_RUN", vcpu_, 0xae80, 0), -kEFAULT);
  EXPECT_FALSE(h.kernel().crashed());
}

TEST_F(KvmTest, RunWithCoveringMemslotSucceeds) {
  // Fetch gfn is 0x100; cover [0, 0x200) pages.
  ASSERT_EQ(SetMemslot(0, 0, 0x200 * 4096), 0);
  EXPECT_EQ(h.Call("ioctl$KVM_RUN", vcpu_, 0xae80, 0), 0);
}

TEST_F(KvmTest, SearchMemslotsOobBugInV56) {
  // Listing 1: all memslots above the fetch gfn -> start == len -> OOB.
  KernelHarness h56(KernelVersion::kV5_6);
  const int64_t kvm =
      h56.Call("openat$kvm", h56.StageString("/dev/kvm"), 2);
  const int64_t vm = h56.Call("ioctl$KVM_CREATE_VM", kvm, 0xae01, 0);
  const int64_t vcpu = h56.Call("ioctl$KVM_CREATE_VCPU", vm, 0xae41, 0);
  uint8_t raw[32] = {0};
  const uint32_t slot = 0;
  const uint64_t gpa = 0x400000;  // gfn 0x400 > fetch gfn 0x100.
  const uint64_t size = 0x10 * 4096;
  std::memcpy(raw, &slot, 4);
  std::memcpy(raw + 8, &gpa, 8);
  std::memcpy(raw + 16, &size, 8);
  ASSERT_EQ(h56.Call("ioctl$KVM_SET_USER_MEMORY_REGION", vm, 0x4020ae46,
                     h56.Stage(raw, sizeof(raw))),
            0);
  EXPECT_EQ(h56.Call("ioctl$KVM_RUN", vcpu, 0xae80, 0), -kEIO);
  EXPECT_TRUE(h56.kernel().crashed());
  EXPECT_EQ(h56.kernel().crash().bug, BugId::kKvmGfnToHvaCacheOob);
}

TEST_F(KvmTest, MemslotDeleteAndReplace) {
  ASSERT_EQ(SetMemslot(1, 0x1000, 0x1000), 0);
  ASSERT_EQ(SetMemslot(1, 0x2000, 0x1000), 0);   // Replace.
  ASSERT_EQ(SetMemslot(1, 0x2000, 0), 0);        // Delete.
  EXPECT_EQ(SetMemslot(77, 0, 0x1000), -kEINVAL);  // Slot id too big.
}

TEST_F(KvmTest, IrqLineNeedsIrqchip) {
  const uint32_t line[2] = {3, 1};
  EXPECT_EQ(h.Call("ioctl$KVM_IRQ_LINE", vm_, 0xc008ae67,
                   h.Stage(line, sizeof(line))),
            -kENXIO);
  ASSERT_EQ(h.Call("ioctl$KVM_CREATE_IRQCHIP", vm_, 0xae60, 0), 0);
  EXPECT_EQ(h.Call("ioctl$KVM_IRQ_LINE", vm_, 0xc008ae67,
                   h.Stage(line, sizeof(line))),
            0);
}

TEST_F(KvmTest, HypervSynicNullDerefWithoutIrqchip) {
  uint8_t cap[24] = {0};
  const uint32_t hv_synic = 123;
  std::memcpy(cap, &hv_synic, 4);
  ASSERT_EQ(h.Call("ioctl$KVM_ENABLE_CAP_CPU", vcpu_, 0x4068aea3,
                   h.Stage(cap, sizeof(cap))),
            0);
  ASSERT_EQ(SetMemslot(0, 0, 0x200 * 4096), 0);
  EXPECT_EQ(h.Call("ioctl$KVM_RUN", vcpu_, 0xae80, 0), -kEFAULT);
  EXPECT_TRUE(h.kernel().crashed());
  EXPECT_EQ(h.kernel().crash().bug, BugId::kKvmHvIrqRoutingNullDeref);
}

TEST_F(KvmTest, CoalescedMmioUnregisterGpf) {
  uint64_t zone[2] = {0x1000, 0x1000};
  ASSERT_EQ(h.Call("ioctl$KVM_REGISTER_COALESCED_MMIO", vm_, 0x4010ae67,
                   h.Stage(zone, sizeof(zone))),
            0);
  ASSERT_EQ(h.Call("ioctl$KVM_UNREGISTER_COALESCED_MMIO", vm_, 0x4010ae68,
                   h.Stage(zone, sizeof(zone))),
            0);
  // Second unregister: zone list empty but a bus device count remains.
  EXPECT_EQ(h.Call("ioctl$KVM_UNREGISTER_COALESCED_MMIO", vm_, 0x4010ae68,
                   h.Stage(zone, sizeof(zone))),
            -kEFAULT);
  EXPECT_TRUE(h.kernel().crashed());
  EXPECT_EQ(h.kernel().crash().bug, BugId::kKvmUnregisterCoalescedMmioGpf);
}

TEST_F(KvmTest, IoeventfdConsumesEventfd) {
  const int64_t efd = h.Call("eventfd2", 0, 0);
  uint64_t arg[3] = {0x1000, 4, static_cast<uint64_t>(efd)};
  EXPECT_EQ(h.Call("ioctl$KVM_IOEVENTFD", vm_, 0x4040ae79,
                   h.Stage(arg, sizeof(arg))),
            0);
  uint64_t bad[3] = {0x1000, 4, static_cast<uint64_t>(-1)};
  EXPECT_EQ(h.Call("ioctl$KVM_IOEVENTFD", vm_, 0x4040ae79,
                   h.Stage(bad, sizeof(bad))),
            -kEBADF);
}

TEST_F(KvmTest, SetGetRegsRoundTrip) {
  const uint64_t regs[4] = {0x1111, 0x2222, 0x3333, 0x4444};
  ASSERT_EQ(h.Call("ioctl$KVM_SET_REGS", vcpu_, 0x4090ae82,
                   h.Stage(regs, sizeof(regs))),
            0);
  const uint64_t out = h.OutBuf(32);
  ASSERT_EQ(h.Call("ioctl$KVM_GET_REGS", vcpu_, 0x8090ae81, out), 0);
  uint64_t r0 = 0;
  h.kernel().mem().Read64(out, &r0);
  EXPECT_EQ(r0, 0x1111u);
}

TEST_F(KvmTest, SmiGatedByVersion) {
  KernelHarness h419(KernelVersion::kV4_19);
  EXPECT_EQ(h419.Call("ioctl$KVM_SMI", 3, 0xaeb7), -kENOSYS);
  EXPECT_EQ(h.Call("ioctl$KVM_SMI", vcpu_, 0xaeb7), 0);
}

// ---- TTY ----

class TtyTest : public ::testing::Test {
 protected:
  KernelHarness h{KernelVersion::kV5_11};

  int64_t OpenPtmx() {
    return h.Call("openat$ptmx", h.StageString("/dev/ptmx"), 2);
  }
};

TEST_F(TtyTest, LdiscRoundTrip) {
  const int64_t fd = OpenPtmx();
  EXPECT_EQ(h.Call("ioctl$TIOCSETD", fd, 0x5423, 21), 0);  // N_GSM.
  const uint64_t out = h.OutBuf(4);
  EXPECT_EQ(h.Call("ioctl$TIOCGETD", fd, 0x5424, out), 0);
  uint32_t ldisc = 0;
  h.kernel().mem().Read32(out, &ldisc);
  EXPECT_EQ(ldisc, 21u);
}

TEST_F(TtyTest, GsmConfigBeforeAttachNullDeref) {
  const int64_t fd = OpenPtmx();
  const uint32_t conf[4] = {1, 0, 64, 64};
  EXPECT_EQ(h.Call("ioctl$GSMIOC_CONFIG", fd, 0x40104701,
                   h.Stage(conf, sizeof(conf))),
            -kEFAULT);
  EXPECT_TRUE(h.kernel().crashed());
  EXPECT_EQ(h.kernel().crash().bug, BugId::kGsmldAttachNullDeref);
}

TEST_F(TtyTest, GsmWriteNeedsConfig) {
  const int64_t fd = OpenPtmx();
  ASSERT_EQ(h.Call("ioctl$TIOCSETD", fd, 0x5423, 21), 0);
  EXPECT_EQ(h.Call("write$ptmx", fd, h.Stage("x", 1), 1), -kEAGAIN);
  const uint32_t conf[4] = {1, 0, 64, 64};
  ASSERT_EQ(h.Call("ioctl$GSMIOC_CONFIG", fd, 0x40104701,
                   h.Stage(conf, sizeof(conf))),
            0);
  EXPECT_EQ(h.Call("write$ptmx", fd, h.Stage("x", 1), 1), 1);
}

TEST_F(TtyTest, NttyOpenPagingFaultOnGsmTeardown) {
  const int64_t fd = OpenPtmx();
  ASSERT_EQ(h.Call("ioctl$TIOCSETD", fd, 0x5423, 21), 0);
  const uint32_t conf[4] = {1, 0, 64, 64};
  h.Call("ioctl$GSMIOC_CONFIG", fd, 0x40104701, h.Stage(conf, sizeof(conf)));
  h.Call("write$ptmx", fd, h.Stage("zz", 2), 2);  // rx_pending.
  EXPECT_EQ(h.Call("ioctl$TIOCSETD", fd, 0x5423, 0), -kEFAULT);
  EXPECT_TRUE(h.kernel().crashed());
  EXPECT_EQ(h.kernel().crash().bug, BugId::kNttyOpenPagingFault);
}

TEST_F(TtyTest, ReceiveBufUafOnV50) {
  KernelHarness h50(KernelVersion::kV5_0);
  const int64_t fd =
      h50.Call("openat$ptmx", h50.StageString("/dev/ptmx"), 2);
  ASSERT_EQ(h50.Call("write$ptmx", fd, h50.Stage("aa", 2), 2), 2);
  ASSERT_EQ(h50.Call("ioctl$TIOCSETD", fd, 0x5423, 3), 0);  // N_PPP.
  ASSERT_EQ(h50.Call("ioctl$TIOCSETD", fd, 0x5423, 0), 0);  // Back to N_TTY.
  EXPECT_EQ(h50.Call("read$ptmx", fd, h50.OutBuf(8), 2), -kEIO);
  EXPECT_TRUE(h50.kernel().crashed());
  EXPECT_EQ(h50.kernel().crash().bug, BugId::kNttyReceiveBufUaf);
}

TEST_F(TtyTest, VcsResizeAndOobs) {
  KernelHarness h419(KernelVersion::kV4_19);
  const int64_t fd = h419.Call("openat$vcs", h419.StageString("/dev/vcs"), 2);
  ASSERT_GE(fd, 0);
  // Default screen 80x25 -> 4000 bytes.
  EXPECT_EQ(h419.Call("write$vcs", fd, h419.OutBuf(4100), 4100), -kEIO);
  EXPECT_TRUE(h419.kernel().crashed());
  EXPECT_EQ(h419.kernel().crash().bug, BugId::kVcsWriteOob);
}

TEST_F(TtyTest, VcsReadOobAfterShrinkOnV50) {
  KernelHarness h50(KernelVersion::kV5_0);
  const int64_t fd = h50.Call("openat$vcs", h50.StageString("/dev/vcs"), 2);
  const uint16_t sizes[2] = {10, 10};  // Shrink to 10x10.
  ASSERT_EQ(h50.Call("ioctl$VT_RESIZE", fd, 0x5609,
                     h50.Stage(sizes, sizeof(sizes))),
            0);
  EXPECT_EQ(h50.Call("read$vcs", fd, h50.OutBuf(4096), 500), -kEIO);
  EXPECT_TRUE(h50.kernel().crashed());
  EXPECT_EQ(h50.kernel().crash().bug, BugId::kVcsScrReadwOob);
}

TEST_F(TtyTest, FbPixclockZeroDivideOn419) {
  KernelHarness h419(KernelVersion::kV4_19);
  const int64_t fd = h419.Call("openat$fb0", h419.StageString("/dev/fb0"), 2);
  const uint32_t var[4] = {1024, 768, 32, 0};
  EXPECT_EQ(h419.Call("ioctl$FBIOPUT_VSCREENINFO", fd, 0x4601,
                      h419.Stage(var, sizeof(var))),
            -kEIO);
  EXPECT_TRUE(h419.kernel().crashed());
}

TEST_F(TtyTest, FontOobNeedsSecondOversizedFont) {
  KernelHarness h419(KernelVersion::kV4_19);
  const int64_t fd = h419.Call("openat$vcs", h419.StageString("/dev/vcs"), 2);
  const uint32_t ok_font[2] = {16, 256};
  ASSERT_EQ(h419.Call("ioctl$PIO_FONT", fd, 0x4b61,
                      h419.Stage(ok_font, sizeof(ok_font))),
            0);
  const uint32_t big_font[2] = {64, 256};
  EXPECT_EQ(h419.Call("ioctl$PIO_FONT", fd, 0x4b61,
                      h419.Stage(big_font, sizeof(big_font))),
            -kEIO);
  EXPECT_TRUE(h419.kernel().crashed());
  EXPECT_EQ(h419.kernel().crash().bug, BugId::kFbconGetFontOob);
}

TEST_F(TtyTest, TtyprintkBugNeedsRepeatedLongWrites) {
  KernelHarness h54(KernelVersion::kV5_4);
  const int64_t fd =
      h54.Call("openat$ttyprintk", h54.StageString("/dev/ttyprintk"), 2);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(h54.Call("write$ttyprintk", fd, h54.OutBuf(300), 300), 300);
  EXPECT_EQ(h54.Call("write$ttyprintk", fd, h54.OutBuf(300), 300), 300);
  EXPECT_EQ(h54.Call("write$ttyprintk", fd, h54.OutBuf(300), 300), -kEIO);
  EXPECT_TRUE(h54.kernel().crashed());
  EXPECT_EQ(h54.kernel().crash().bug, BugId::kTpkWriteBug);
}

TEST_F(TtyTest, VividStreamLifecycleBug) {
  KernelHarness h419(KernelVersion::kV4_19);
  const int64_t fd =
      h419.Call("openat$video0", h419.StageString("/dev/video0"), 2);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(h419.Call("ioctl$VIDIOC_STREAMON", fd, 0x40045612, 1), -kEINVAL);
  ASSERT_EQ(h419.Call("ioctl$VIDIOC_REQBUFS", fd, 0xc0145608, 4), 0);
  ASSERT_EQ(h419.Call("ioctl$VIDIOC_STREAMON", fd, 0x40045612, 1), 0);
  ASSERT_EQ(h419.Call("ioctl$VIDIOC_STREAMOFF", fd, 0x40045613, 1), 0);
  EXPECT_EQ(h419.Call("ioctl$VIDIOC_STREAMOFF", fd, 0x40045613, 1), -kEFAULT);
  EXPECT_TRUE(h419.kernel().crashed());
  EXPECT_EQ(h419.kernel().crash().bug, BugId::kVividStopGenerating);
}

TEST_F(TtyTest, ConsoleUnlockDeadlockNeedsLongChain) {
  const int64_t ptmx = OpenPtmx();
  const int64_t vcs = h.Call("openat$vcs", h.StageString("/dev/vcs"), 2);
  ASSERT_GE(vcs, 0);
  // Build printk pressure: STI x4, two resizes, then vcs writes.
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(h.Call("ioctl$TIOCSTI", ptmx, 0x5412, h.StageString("x")), 0);
  }
  const uint16_t sizes[2] = {30, 90};
  ASSERT_EQ(h.Call("ioctl$VT_RESIZE", vcs, 0x5609,
                   h.Stage(sizes, sizeof(sizes))),
            0);
  ASSERT_EQ(h.Call("ioctl$VT_RESIZE", vcs, 0x5609,
                   h.Stage(sizes, sizeof(sizes))),
            0);
  ASSERT_EQ(h.Call("write$vcs", vcs, h.Stage("a", 1), 1), 1);
  EXPECT_EQ(h.Call("write$vcs", vcs, h.Stage("a", 1), 1), -kEIO);
  EXPECT_TRUE(h.kernel().crashed());
  EXPECT_EQ(h.kernel().crash().bug, BugId::kConsoleUnlockDeadlock);
}

// ---- io_uring ----

TEST(UringTest, SetupRoundsEntries) {
  KernelHarness h(KernelVersion::kV5_11);
  const uint64_t params = h.OutBuf(4);
  const int64_t fd = h.Call("io_uring_setup", 100, params);
  ASSERT_GE(fd, 0);
  uint32_t rounded = 0;
  h.kernel().mem().Read32(params, &rounded);
  EXPECT_EQ(rounded, 128u);
}

TEST(UringTest, CancelWithClosedRegisteredFileNullDeref) {
  KernelHarness h(KernelVersion::kV5_11);
  const int64_t ring = h.Call("io_uring_setup", 8, h.OutBuf(4));
  const int64_t efd = h.Call("eventfd2", 0, 0);
  const uint64_t fds[1] = {static_cast<uint64_t>(efd)};
  ASSERT_EQ(h.Call("io_uring_register$FILES", ring, 2,
                   h.Stage(fds, sizeof(fds)), 1),
            0);
  ASSERT_EQ(h.Call("close", efd), 0);
  EXPECT_EQ(h.Call("io_uring_enter", ring, 0, 0, 0x10), -kEFAULT);
  EXPECT_TRUE(h.kernel().crashed());
  EXPECT_EQ(h.kernel().crash().bug, BugId::kIoUringCancelNullDeref);
}

TEST(UringTest, SubmitAndComplete) {
  KernelHarness h(KernelVersion::kV5_11);
  const int64_t ring = h.Call("io_uring_setup", 8, h.OutBuf(4));
  EXPECT_EQ(h.Call("io_uring_enter", ring, 4, 0, 0), 4);
  EXPECT_EQ(h.Call("io_uring_enter", ring, 0, 4, 1), 4);  // GETEVENTS.
}

// ---- block ----

TEST(BlockTest, NbdDisconnectChainNullDeref) {
  KernelHarness h(KernelVersion::kV5_11);
  const int64_t nbd = h.Call("openat$nbd", h.StageString("/dev/nbd0"), 2);
  const int64_t sock = h.Call("socket$tcp", 2, 1, 0);
  ASSERT_EQ(h.Call("ioctl$NBD_SET_SOCK", nbd, 0xab00, sock), 0);
  ASSERT_EQ(h.Call("ioctl$NBD_DO_IT", nbd, 0xab03), 0);
  ASSERT_EQ(h.Call("close", sock), 0);
  EXPECT_EQ(h.Call("ioctl$NBD_DISCONNECT", nbd, 0xab08), -kEFAULT);
  EXPECT_TRUE(h.kernel().crashed());
  EXPECT_EQ(h.kernel().crash().bug, BugId::kNbdDisconnectNullDeref);
}

TEST(BlockTest, NbdNormalDisconnectIsClean) {
  KernelHarness h(KernelVersion::kV5_11);
  const int64_t nbd = h.Call("openat$nbd", h.StageString("/dev/nbd0"), 2);
  const int64_t sock = h.Call("socket$tcp", 2, 1, 0);
  ASSERT_EQ(h.Call("ioctl$NBD_SET_SOCK", nbd, 0xab00, sock), 0);
  ASSERT_EQ(h.Call("ioctl$NBD_DO_IT", nbd, 0xab03), 0);
  EXPECT_EQ(h.Call("ioctl$NBD_DISCONNECT", nbd, 0xab08), 0);
  EXPECT_FALSE(h.kernel().crashed());
}

TEST(BlockTest, LoopDoubleClearPutDevice) {
  KernelHarness h(KernelVersion::kV5_11);
  const int64_t file =
      h.Call("openat$file", h.StageString("/tmp/back"), 0x42, 0644);
  const int64_t loop = h.Call("openat$loop", h.StageString("/dev/loop0"), 2);
  ASSERT_EQ(h.Call("ioctl$LOOP_SET_FD", loop, 0x4c00, file), 0);
  ASSERT_EQ(h.Call("close", file), 0);
  ASSERT_EQ(h.Call("ioctl$LOOP_CLR_FD", loop, 0x4c01), 0);
  EXPECT_EQ(h.Call("ioctl$LOOP_CLR_FD", loop, 0x4c01), -kEFAULT);
  EXPECT_TRUE(h.kernel().crashed());
  EXPECT_EQ(h.kernel().crash().bug, BugId::kPutDeviceNullDeref);
}

// ---- rdma ----

TEST(RdmaTest, ListenAfterDestroyUaf) {
  KernelHarness h(KernelVersion::kV5_11);
  const int64_t fd =
      h.Call("openat$rdma_cm", h.StageString("/dev/infiniband/rdma_cm"), 2);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(h.Call("write$rdma_create_id", fd, h.OutBuf(8), 8), 0);
  ASSERT_EQ(h.Call("write$rdma_destroy_id", fd, h.OutBuf(8), 8), 0);
  EXPECT_EQ(h.Call("write$rdma_listen", fd, h.OutBuf(8), 8), -kEIO);
  EXPECT_TRUE(h.kernel().crashed());
  EXPECT_EQ(h.kernel().crash().bug, BugId::kRdmaListenUaf);
}

TEST(RdmaTest, DestroyDuringResolveUaf) {
  KernelHarness h(KernelVersion::kV5_11);
  const int64_t fd =
      h.Call("openat$rdma_cm", h.StageString("/dev/infiniband/rdma_cm"), 2);
  ASSERT_EQ(h.Call("write$rdma_create_id", fd, h.OutBuf(8), 8), 0);
  ASSERT_EQ(h.Call("write$rdma_bind_addr", fd, h.OutBuf(8), 8), 0);
  ASSERT_EQ(h.Call("write$rdma_resolve_addr", fd, h.OutBuf(8), 8), 0);
  EXPECT_EQ(h.Call("write$rdma_destroy_id", fd, h.OutBuf(8), 8), -kEIO);
  EXPECT_TRUE(h.kernel().crashed());
  EXPECT_EQ(h.kernel().crash().bug, BugId::kCmaCancelOperationUaf);
}

TEST(RdmaTest, NormalLifecycle) {
  KernelHarness h(KernelVersion::kV5_11);
  const int64_t fd =
      h.Call("openat$rdma_cm", h.StageString("/dev/infiniband/rdma_cm"), 2);
  ASSERT_EQ(h.Call("write$rdma_create_id", fd, h.OutBuf(8), 8), 0);
  ASSERT_EQ(h.Call("write$rdma_bind_addr", fd, h.OutBuf(8), 8), 0);
  ASSERT_EQ(h.Call("write$rdma_listen", fd, h.OutBuf(8), 8), 0);
  EXPECT_FALSE(h.kernel().crashed());
}

// ---- aio ----

class AioTest : public ::testing::Test {
 protected:
  KernelHarness h{KernelVersion::kV5_0};
  int64_t ctx_ = -1;

  void Setup(uint32_t nr) {
    const uint64_t out = h.OutBuf(8);
    ASSERT_EQ(h.Call("io_setup", nr, out), 0);
    uint64_t id;
    ASSERT_TRUE(h.kernel().mem().Read64(out, &id));
    ctx_ = static_cast<int64_t>(id);
  }

  uint64_t StageIocbs(int count, uint64_t fd) {
    std::vector<uint64_t> raw;
    for (int i = 0; i < count; ++i) {
      raw.push_back(fd);
      raw.push_back(0);  // op
      raw.push_back(0);  // buf
      raw.push_back(8);  // len
    }
    return h.Stage(raw.data(), raw.size() * 8);
  }
};

TEST_F(AioTest, SubmitGetEventsDestroy) {
  Setup(8);
  const int64_t efd = h.Call("eventfd2", 0, 0);
  EXPECT_EQ(h.Call("io_submit", ctx_, 2, StageIocbs(2, efd)), 2);
  EXPECT_EQ(h.Call("io_getevents", ctx_, 0, 8, h.OutBuf(64)), 2);
  EXPECT_EQ(h.Call("io_destroy", ctx_), 0);
  EXPECT_EQ(h.Call("io_submit", ctx_, 1, StageIocbs(1, efd)), -kEINVAL);
}

TEST_F(AioTest, OverSubmitDeadlockOnV50) {
  Setup(2);
  const int64_t efd = h.Call("eventfd2", 0, 0);
  EXPECT_EQ(h.Call("io_submit", ctx_, 3, StageIocbs(3, efd)), -kEIO);
  EXPECT_TRUE(h.kernel().crashed());
  EXPECT_EQ(h.kernel().crash().bug, BugId::kIoSubmitOneDeadlock);
}

TEST_F(AioTest, DestroyWithInFlightDeadlockOnV50) {
  Setup(8);
  const int64_t efd = h.Call("eventfd2", 0, 0);
  ASSERT_EQ(h.Call("io_submit", ctx_, 2, StageIocbs(2, efd)), 2);
  EXPECT_EQ(h.Call("io_destroy", ctx_), -kEIO);
  EXPECT_TRUE(h.kernel().crashed());
  EXPECT_EQ(h.kernel().crash().bug, BugId::kFreeIoctxUsersDeadlock);
}

// ---- coredump (the paper's case study) ----

TEST(CoredumpTest, FillThreadCoreUninitValue) {
  KernelHarness h(KernelVersion::kV5_6);
  ASSERT_EQ(h.Call("prctl$PR_SET_DUMPABLE", 4, 1), 0);
  // Partial regset: 24 bytes is not a multiple of the 16-byte slot size.
  ASSERT_EQ(h.Call("ptrace$SETREGSET", 0, h.OutBuf(24), 24), 0);
  EXPECT_EQ(h.Call("tgkill$self", 11), -kEIO);  // SIGSEGV -> core dump.
  EXPECT_TRUE(h.kernel().crashed());
  EXPECT_EQ(h.kernel().crash().bug, BugId::kFillThreadCoreUninit);
}

TEST(CoredumpTest, FullRegsetIsClean) {
  KernelHarness h(KernelVersion::kV5_6);
  h.Call("prctl$PR_SET_DUMPABLE", 4, 1);
  h.Call("ptrace$SETREGSET", 0, h.OutBuf(32), 32);  // Multiple of 16.
  EXPECT_EQ(h.Call("tgkill$self", 11), 0);
  EXPECT_FALSE(h.kernel().crashed());
}

TEST(CoredumpTest, NotDumpableSkipsDump) {
  KernelHarness h(KernelVersion::kV5_6);
  h.Call("ptrace$SETREGSET", 0, h.OutBuf(24), 24);
  EXPECT_EQ(h.Call("tgkill$self", 11), 0);  // dumpable defaults to false.
  EXPECT_FALSE(h.kernel().crashed());
}

TEST(CoredumpTest, FixedInV511) {
  KernelHarness h(KernelVersion::kV5_11);
  h.Call("prctl$PR_SET_DUMPABLE", 4, 1);
  h.Call("ptrace$SETREGSET", 0, h.OutBuf(24), 24);
  EXPECT_EQ(h.Call("tgkill$self", 11), 0);
  EXPECT_FALSE(h.kernel().crashed());
}

}  // namespace
}  // namespace healer
