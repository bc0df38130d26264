#include "transform/naming.hpp"

#include <gtest/gtest.h>

namespace rafda::transform {
namespace {

TEST(Naming, FollowsPaperScheme) {
    EXPECT_EQ(naming::o_int("X"), "X_O_Int");
    EXPECT_EQ(naming::o_local("X"), "X_O_Local");
    EXPECT_EQ(naming::o_proxy("X", "SOAP"), "X_O_Proxy_SOAP");
    EXPECT_EQ(naming::o_proxy("X", "RMI"), "X_O_Proxy_RMI");
    EXPECT_EQ(naming::c_int("X"), "X_C_Int");
    EXPECT_EQ(naming::c_local("X"), "X_C_Local");
    EXPECT_EQ(naming::c_proxy("X", "RMI"), "X_C_Proxy_RMI");
    EXPECT_EQ(naming::o_factory("X"), "X_O_Factory");
    EXPECT_EQ(naming::c_factory("X"), "X_C_Factory");
}

TEST(Naming, Properties) {
    EXPECT_EQ(naming::getter("y"), "get_y");
    EXPECT_EQ(naming::setter("y"), "set_y");
    EXPECT_EQ(naming::static_forwarder("p"), "call_p");
}

}  // namespace
}  // namespace rafda::transform
