/**
 * @file
 * A non-owning reference to a callable: two words (the callable's
 * address and a call thunk), copied freely, never allocating. It lets
 * a hot entry point such as ThreadPool::orderedFanOut() take a lambda
 * of any capture size without the heap block std::function needs past
 * its small buffer. The referenced callable must outlive every call
 * through the reference; binding a temporary lambda at a call site is
 * fine for the duration of that call.
 */

#ifndef CDMA_COMMON_FUNCTION_REF_HH
#define CDMA_COMMON_FUNCTION_REF_HH

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace cdma {

template <typename Signature>
class FunctionRef;

/** Non-owning, non-null reference to a callable of signature R(Args...). */
template <typename R, typename... Args>
class FunctionRef<R(Args...)>
{
  public:
    template <typename F>
        requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                 std::is_invocable_r_v<R, F &, Args...>)
    FunctionRef(F &&f) noexcept
        : object_(const_cast<void *>(
              static_cast<const void *>(std::addressof(f)))),
          call_([](void *object, Args... args) -> R {
              auto &callable =
                  *static_cast<std::remove_reference_t<F> *>(object);
              if constexpr (std::is_void_v<R>)
                  std::invoke(callable, std::forward<Args>(args)...);
              else
                  return std::invoke(callable, std::forward<Args>(args)...);
          })
    {
    }

    R operator()(Args... args) const
    {
        return call_(object_, std::forward<Args>(args)...);
    }

  private:
    void *object_;
    R (*call_)(void *, Args...);
};

} // namespace cdma

#endif // CDMA_COMMON_FUNCTION_REF_HH
