#include <gtest/gtest.h>

#include "src/fuzz/prog_builder.h"
#include "src/fuzz/templates.h"
#include "src/prog/prog.h"
#include "src/prog/serialize.h"
#include "src/prog/slots.h"
#include "src/syzlang/builtin_descs.h"

namespace healer {
namespace {

std::vector<int> AllSyscallIds(const Target& target) {
  std::vector<int> ids;
  for (const auto& call : target.syscalls()) {
    ids.push_back(call->id);
  }
  return ids;
}

Prog Chain(const std::vector<std::string>& names, Rng* rng) {
  const Target& target = BuiltinTarget();
  return BuildChain(target, AllSyscallIds(target), names, rng);
}

// ---- Arg basics ----

TEST(ArgTest, CloneIsDeep) {
  Rng rng(1);
  Prog prog = Chain({"memfd_create", "write$memfd"}, &rng);
  ASSERT_EQ(prog.size(), 2u);
  Prog copy = prog.Clone();
  // Mutating the copy must not affect the original.
  copy.calls()[1].args[0]->val = 999;
  EXPECT_NE(prog.calls()[1].args[0]->val, 999u);
  EXPECT_EQ(copy.target(), prog.target());
}

TEST(ArgTest, SizeOfScalarsAndAggregates) {
  const Target& target = BuiltinTarget();
  const Type* region = target.FindNamedType("kvm_userspace_memory_region");
  Rng rng(2);
  ArgGenerator gen(&rng);
  ResourcePool pool;
  ArgPtr arg = gen.Gen(region, pool);
  EXPECT_EQ(arg->Size(), 32u);
}

// ---- RemoveCall semantics ----

TEST(ProgTest, RemoveCallDegradesDanglingRefs) {
  Rng rng(3);
  Prog prog = Chain({"memfd_create", "fcntl$ADD_SEALS"}, &rng);
  ASSERT_EQ(prog.size(), 2u);
  // fcntl's fd arg references call 0.
  const Arg& fd_arg = *prog.calls()[1].args[0];
  ASSERT_EQ(fd_arg.kind, ArgKind::kResource);
  ASSERT_EQ(fd_arg.res_ref, 0);

  prog.RemoveCall(0);
  ASSERT_EQ(prog.size(), 1u);
  const Arg& degraded = *prog.calls()[0].args[0];
  EXPECT_EQ(degraded.res_ref, -1);
  EXPECT_EQ(degraded.val, static_cast<uint64_t>(-1));  // fd special.
}

TEST(ProgTest, RemoveCallShiftsLaterRefs) {
  Rng rng(4);
  Prog prog = Chain({"openat$file", "memfd_create", "fcntl$ADD_SEALS"}, &rng);
  ASSERT_EQ(prog.size(), 3u);
  ASSERT_EQ(prog.calls()[2].args[0]->res_ref, 1);
  prog.RemoveCall(0);
  EXPECT_EQ(prog.calls()[1].args[0]->res_ref, 0);
  EXPECT_TRUE(prog.Validate().ok());
}

TEST(ProgTest, TruncateDropsTail) {
  Rng rng(5);
  Prog prog = Chain({"memfd_create", "write$memfd", "fcntl$ADD_SEALS"}, &rng);
  prog.Truncate(1);
  EXPECT_EQ(prog.size(), 1u);
  EXPECT_EQ(prog.calls()[0].meta->name, "memfd_create");
}

// ---- FixupLens ----

TEST(ProgTest, FixupLensTracksBufferSize) {
  Rng rng(6);
  Prog prog = Chain({"memfd_create", "write$memfd"}, &rng);
  Call& write = prog.calls()[1];
  // write$memfd(fd, buf ptr[in, buffer], count len[buf]).
  Arg& buf = *write.args[1];
  ASSERT_EQ(buf.kind, ArgKind::kPointer);
  ASSERT_NE(buf.pointee, nullptr);
  buf.pointee->data.assign(37, 0xab);
  prog.FixupLens();
  EXPECT_EQ(write.args[2]->val, 37u);
}

TEST(ProgTest, FixupLensCountsArrayElements) {
  Rng rng(7);
  Prog prog = Chain({"io_uring_setup", "io_uring_register$BUFFERS"}, &rng);
  ASSERT_EQ(prog.size(), 2u);
  Call& reg = prog.calls()[1];
  Arg& iovs = *reg.args[2];
  ASSERT_EQ(iovs.kind, ArgKind::kPointer);
  ASSERT_NE(iovs.pointee, nullptr);
  const size_t elems = iovs.pointee->inner.size();
  prog.FixupLens();
  EXPECT_EQ(reg.args[3]->val, elems);
}

TEST(ProgTest, FixupLensUsesVmaBytes) {
  Rng rng(8);
  Prog prog = Chain({"mmap"}, &rng);
  ASSERT_GE(prog.size(), 1u);
  Call& mmap = prog.calls().back();
  Arg& addr = *mmap.args[0];
  ASSERT_EQ(addr.kind, ArgKind::kVma);
  addr.vma_pages = 3;
  prog.FixupLens();
  EXPECT_EQ(mmap.args[1]->val, 3 * 4096u);
}

// ---- Validate ----

TEST(ProgTest, ValidateAcceptsChains) {
  Rng rng(9);
  for (const auto& chain : TemplateChains()) {
    Prog prog = Chain(chain, &rng);
    if (prog.empty()) {
      continue;  // Chain unavailable in this config.
    }
    EXPECT_TRUE(prog.Validate().ok())
        << prog.ToString() << prog.Validate().ToString();
  }
}

TEST(ProgTest, ValidateRejectsForwardRef) {
  Rng rng(10);
  Prog prog = Chain({"memfd_create", "fcntl$ADD_SEALS"}, &rng);
  prog.calls()[1].args[0]->res_ref = 1;  // Self-reference.
  EXPECT_FALSE(prog.Validate().ok());
}

TEST(ProgTest, ValidateRejectsIncompatibleProducer) {
  Rng rng(11);
  Prog prog = Chain({"socket$tcp", "ioctl$KVM_CREATE_VCPU"}, &rng);
  // socket + the synthesized openat$kvm -> CREATE_VM producer chain.
  ASSERT_EQ(prog.size(), 4u);
  // Point the kvm_vm_fd arg at the tcp socket instead.
  Call& vcpu = prog.calls().back();
  vcpu.args[0]->res_ref = 0;
  EXPECT_FALSE(prog.Validate().ok());
}

TEST(ProgTest, ToStringMentionsCallsAndRefs) {
  Rng rng(12);
  Prog prog = Chain({"memfd_create", "write$memfd"}, &rng);
  const std::string text = prog.ToString();
  EXPECT_NE(text.find("memfd_create"), std::string::npos);
  EXPECT_NE(text.find("write$memfd"), std::string::npos);
  EXPECT_NE(text.find("r0"), std::string::npos);
}

// ---- Result slots ----

TEST(SlotsTest, RetOnly) {
  const Target& target = BuiltinTarget();
  const auto slots = ResultSlotsOf(*target.FindSyscall("memfd_create"));
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_EQ(slots[0].slot, 0);
  EXPECT_EQ(slots[0].resource->name, "memfd");
}

TEST(SlotsTest, OutParamsNumberedAfterRet) {
  const Target& target = BuiltinTarget();
  const auto slots = ResultSlotsOf(*target.FindSyscall("pipe2"));
  ASSERT_EQ(slots.size(), 2u);
  EXPECT_EQ(slots[0].slot, 1);
  EXPECT_EQ(slots[0].resource->name, "pipe_r_fd");
  EXPECT_EQ(slots[1].slot, 2);
  EXPECT_EQ(slots[1].resource->name, "pipe_w_fd");
}

TEST(SlotsTest, NoSlotsForPureConsumers) {
  const Target& target = BuiltinTarget();
  EXPECT_TRUE(ResultSlotsOf(*target.FindSyscall("close")).empty());
  EXPECT_TRUE(ResultSlotsOf(*target.FindSyscall("listen")).empty());
}

TEST(SlotsTest, IoSetupOutResource) {
  const Target& target = BuiltinTarget();
  const auto slots = ResultSlotsOf(*target.FindSyscall("io_setup"));
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_EQ(slots[0].slot, 1);
  EXPECT_EQ(slots[0].resource->name, "aio_ctx");
}

// ---- Serialization ----

TEST(SerializeTest, RoundTripChain) {
  Rng rng(13);
  const Target& target = BuiltinTarget();
  Prog prog = Chain({"openat$kvm", "ioctl$KVM_CREATE_VM",
                     "ioctl$KVM_CREATE_VCPU", "ioctl$KVM_RUN"},
                    &rng);
  const auto bytes = SerializeProg(prog);
  auto decoded = DeserializeProg(target, bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->size(), prog.size());
  EXPECT_EQ(SerializeProg(*decoded), bytes);  // Canonical form.
  EXPECT_EQ(decoded->ToString(), prog.ToString());
}

class SerializePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializePropertyTest, RandomProgsRoundTrip) {
  const Target& target = BuiltinTarget();
  Rng rng(GetParam());
  ProgBuilder builder(target, AllSyscallIds(target), &rng);
  Prog prog = builder.Generate(
      [&](const std::vector<int>&) {
        return static_cast<int>(rng.Below(target.NumSyscalls()));
      },
      4 + rng.Below(12));
  ASSERT_TRUE(prog.Validate().ok());
  const auto bytes = SerializeProg(prog);
  auto decoded = DeserializeProg(target, bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(SerializeProg(*decoded), bytes);
  EXPECT_TRUE(decoded->Validate().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializePropertyTest,
                         ::testing::Range<uint64_t>(0, 40));

TEST(SerializeTest, RejectsBadMagic) {
  const Target& target = BuiltinTarget();
  std::vector<uint8_t> bytes = {1, 2, 3, 4, 0, 0, 0, 0};
  EXPECT_FALSE(DeserializeProg(target, bytes.data(), bytes.size()).ok());
}

TEST(SerializeTest, RejectsTruncation) {
  Rng rng(14);
  const Target& target = BuiltinTarget();
  Prog prog = Chain({"memfd_create", "write$memfd"}, &rng);
  const auto bytes = SerializeProg(prog);
  for (size_t cut : {size_t{3}, size_t{9}, bytes.size() - 1}) {
    EXPECT_FALSE(DeserializeProg(target, bytes.data(), cut).ok())
        << "cut=" << cut;
  }
}

TEST(SerializeTest, RejectsTrailingGarbage) {
  Rng rng(15);
  const Target& target = BuiltinTarget();
  Prog prog = Chain({"sync"}, &rng);
  auto bytes = SerializeProg(prog);
  bytes.push_back(0xff);
  EXPECT_FALSE(DeserializeProg(target, bytes.data(), bytes.size()).ok());
}

TEST(SerializeTest, RejectsUnknownSyscallId) {
  const Target& target = BuiltinTarget();
  Rng rng(16);
  Prog prog = Chain({"sync"}, &rng);
  auto bytes = SerializeProg(prog);
  // Patch the call id (offset 8: after magic + count).
  bytes[8] = 0xff;
  bytes[9] = 0xff;
  EXPECT_FALSE(DeserializeProg(target, bytes.data(), bytes.size()).ok());
}

}  // namespace
}  // namespace healer
