/**
 * @file
 * Organization-table coverage: the seven organizations are listed in
 * order and round-trip (list -> makeDirectory -> name()), traits drive
 * the CMP geometry decisions, unknown names fail with a message naming
 * the alternatives, and every way-probed organization rejects a way
 * count its probe loops cannot hold, a set count its hash cannot
 * index, and (Cuckoo) a single way.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "directory/directory.hh"
#include "hash/hash_family.hh"

#include "dir_test_util.hh"

namespace cdir {
namespace {

/** Workable small parameters for any organization. */
DirectoryParams
paramsFor(const std::string &organization)
{
    DirectoryParams p;
    p.organization = organization;
    p.numCaches = 8;
    p.ways = 4;
    p.sets = 64;
    p.trackedCacheAssoc = 2;
    p.taglessBucketBits = 64;
    return p;
}

TEST(OrganizationTable, AllSevenOrganizationsInOrder)
{
    // Harnesses emit one row or column per organization in this order.
    const std::vector<std::string> expected{
        "Cuckoo", "DuplicateTag", "Elbow", "InCache",
        "Skewed", "Sparse",       "Tagless"};
    EXPECT_EQ(directoryOrganizations(), expected);
}

TEST(OrganizationTable, EveryNameRoundTripsThroughBuild)
{
    for (const std::string &name : directoryOrganizations()) {
        const DirectoryParams p = paramsFor(name);
        auto dir = makeDirectory(p);
        ASSERT_NE(dir, nullptr) << name;
        // Reported names are "<Organization>-<geometry>"; the table
        // name must prefix them so reports stay greppable.
        EXPECT_EQ(dir->name().rfind(name, 0), 0u)
            << "'" << dir->name() << "' does not start with '" << name
            << "'";
        EXPECT_EQ(dir->numCaches(), p.numCaches);
        EXPECT_GT(dir->capacity(), 0u);
        // A built directory must be immediately usable.
        auto res = test::accessDir(*dir, Tag{1}, CacheId{0}, false);
        EXPECT_TRUE(res.inserted);
        EXPECT_TRUE(dir->probe(Tag{1}));
    }
}

TEST(OrganizationTable, MirrorTraitsMatchOrganizations)
{
    EXPECT_TRUE(directoryTraits("DuplicateTag").mirrorsTrackedCaches);
    EXPECT_TRUE(directoryTraits("Tagless").mirrorsTrackedCaches);
    EXPECT_FALSE(directoryTraits("Cuckoo").mirrorsTrackedCaches);
    EXPECT_FALSE(directoryTraits("Sparse").mirrorsTrackedCaches);
    EXPECT_FALSE(directoryTraits("Skewed").mirrorsTrackedCaches);
    EXPECT_FALSE(directoryTraits("InCache").mirrorsTrackedCaches);
    EXPECT_FALSE(directoryTraits("Elbow").mirrorsTrackedCaches);
}

TEST(OrganizationTable, UnknownNameFailsListingAlternatives)
{
    try {
        makeDirectory(paramsFor("NoSuchOrganization"));
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("NoSuchOrganization"), std::string::npos);
        // The error teaches the caller what exists.
        EXPECT_NE(message.find("Cuckoo"), std::string::npos);
        EXPECT_NE(message.find("Tagless"), std::string::npos);
    }
    EXPECT_THROW(directoryTraits("NoSuchOrganization"),
                 std::invalid_argument);
    EXPECT_THROW(paramsFor("NoSuchOrganization").totalEntries(),
                 std::invalid_argument);
}

TEST(OrganizationTable, WaysOutsideProbeBoundAreRejected)
{
    // The probe loops index fixed kMaxProbeWays-entry stack arrays, so
    // every way-probed organization must refuse a wider slice.
    for (const char *name :
         {"Cuckoo", "Elbow", "InCache", "Skewed", "Sparse"}) {
        for (const unsigned ways : {0u, kMaxProbeWays + 1}) {
            DirectoryParams p = paramsFor(name);
            p.ways = ways;
            try {
                makeDirectory(p);
                ADD_FAILURE() << name << " built with " << ways << " ways";
            } catch (const std::invalid_argument &e) {
                EXPECT_NE(std::string(e.what()).find("1..64"),
                          std::string::npos)
                    << e.what();
            }
        }
        DirectoryParams p = paramsFor(name);
        p.ways = kMaxProbeWays;
        EXPECT_NO_THROW(makeDirectory(p)) << name;
    }
}

TEST(OrganizationTable, SetCountsTheHashCannotIndexAreRejected)
{
    // Every hash family masks its index, so a set count that is not a
    // power of two would leave sets unreachable (Sparse) or index past
    // the LFSR table (the skewing family spans 4..2^24 sets).
    for (const char *name :
         {"Cuckoo", "Elbow", "InCache", "Skewed", "Sparse"}) {
        for (const std::size_t sets : {std::size_t{0}, std::size_t{3},
                                       std::size_t{6}, std::size_t{96}}) {
            DirectoryParams p = paramsFor(name);
            p.sets = sets;
            try {
                makeDirectory(p);
                ADD_FAILURE() << name << " built with " << sets << " sets";
            } catch (const std::invalid_argument &e) {
                EXPECT_NE(std::string(e.what()).find(
                              "directory sets must be a power of two"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
    for (const char *name : {"Cuckoo", "Elbow", "Skewed"}) {
        DirectoryParams p = paramsFor(name);
        p.sets = 2;
        EXPECT_THROW(makeDirectory(p), std::invalid_argument) << name;
        p.sets = 4;
        EXPECT_NO_THROW(makeDirectory(p)) << name;
    }
    DirectoryParams sparse = paramsFor("Sparse");
    sparse.sets = 1;
    EXPECT_NO_THROW(makeDirectory(sparse));
}

TEST(OrganizationTable, CuckooNeedsTwoWays)
{
    // One way leaves displacement nowhere to go: every insertion would
    // swap the same slot until the attempt bound.
    DirectoryParams p = paramsFor("Cuckoo");
    p.ways = 1;
    try {
        makeDirectory(p);
        ADD_FAILURE() << "Cuckoo built with 1 way";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("2..64 (got 1)"),
                  std::string::npos)
            << e.what();
    }
    p.ways = 2;
    EXPECT_NO_THROW(makeDirectory(p));
}

} // namespace
} // namespace cdir
