from hypothesis import HealthCheck, Phase, settings

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# Only the @example cases run; select it with --hypothesis-profile=explicit.
settings.register_profile("explicit", settings.get_profile("default"), phases=[Phase.explicit])
settings.load_profile("default")
