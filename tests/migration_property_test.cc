// Property test for mapping reversibility (paper Section 4, requirement
// 1): because every mapping is uniquely reversible, data can be migrated
// M1 -> Mx -> M1 for any x and the logical content must round-trip
// exactly. The "logical dump" compares every entity (via GetEntity,
// arrays canonicalized) and every relationship instance.

#include <gtest/gtest.h>

#include "evolution/evolution.h"
#include "logical_dump.h"
#include "workload/figure4.h"

namespace erbium {
namespace {

Figure4Config TinyConfig() {
  Figure4Config config;
  config.num_r = 150;
  config.num_s = 50;
  return config;
}

class MigrationRoundTripTest : public ::testing::TestWithParam<MappingSpec> {
};

INSTANTIATE_TEST_SUITE_P(
    Figure4, MigrationRoundTripTest,
    ::testing::ValuesIn([] {
      std::vector<MappingSpec> specs = Figure4AllMappings();
      specs.push_back(Figure4M6Pg());
      return specs;
    }()),
    [](const ::testing::TestParamInfo<MappingSpec>& info) {
      return info.param.name;
    });

TEST_P(MigrationRoundTripTest, M1ToMappingAndBackIsIdentity) {
  auto schema_result = MakeFigure4Schema();
  ASSERT_TRUE(schema_result.ok());
  auto schema =
      std::make_shared<ERSchema>(std::move(schema_result).value());

  auto source = MappedDatabase::Create(schema.get(), Figure4M1());
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE(PopulateFigure4(source->get(), TinyConfig()).ok());
  std::string original = LogicalDump(source->get());
  ASSERT_FALSE(original.empty());

  // M1 -> Mx.
  auto intermediate = MappedDatabase::Create(schema.get(), GetParam());
  ASSERT_TRUE(intermediate.ok()) << intermediate.status().ToString();
  Status st = evolution::MigrateData(source->get(), intermediate->get());
  ASSERT_TRUE(st.ok()) << GetParam().name << ": " << st.ToString();
  EXPECT_EQ(LogicalDump(intermediate->get()), original)
      << "dump diverged after M1 -> " << GetParam().name;

  // Mx -> M1.
  auto round_trip = MappedDatabase::Create(schema.get(), Figure4M1());
  ASSERT_TRUE(round_trip.ok());
  st = evolution::MigrateData(intermediate->get(), round_trip->get());
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(LogicalDump(round_trip->get()), original)
      << "round trip through " << GetParam().name << " not identity";
}

TEST(MigrationMutationTest, MigrationSurvivesPriorMutations) {
  // Deletes/updates before migration must be reflected afterwards, not
  // resurrected by stale physical state.
  auto schema_result = MakeFigure4Schema();
  ASSERT_TRUE(schema_result.ok());
  auto schema =
      std::make_shared<ERSchema>(std::move(schema_result).value());
  auto source = MappedDatabase::Create(schema.get(), Figure4M1());
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE(PopulateFigure4(source->get(), TinyConfig()).ok());

  ASSERT_TRUE(source->get()->DeleteEntity("R", {Value::Int64(5)}).ok());
  ASSERT_TRUE(source->get()
                  ->UpdateAttribute("R", {Value::Int64(6)}, "r_a1",
                                    Value::Int64(-1))
                  .ok());
  std::string mutated = LogicalDump(source->get());

  auto target = MappedDatabase::Create(schema.get(), Figure4M5());
  ASSERT_TRUE(target.ok());
  ASSERT_TRUE(evolution::MigrateData(source->get(), target->get()).ok());
  EXPECT_EQ(LogicalDump(target->get()), mutated);
  EXPECT_FALSE(target->get()->EntityExists("R", {Value::Int64(5)}).value());
  auto entity = target->get()->GetEntity("R", {Value::Int64(6)});
  ASSERT_TRUE(entity.ok());
  EXPECT_EQ(*entity->FindField("r_a1"), Value::Int64(-1));
}

}  // namespace
}  // namespace erbium
