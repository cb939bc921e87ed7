"""Test integration: aging library generation + profile-guided splicing."""

from .library_gen import (
    AgingFaultDetected,
    AgingLibrary,
    DetectionResult,
    FAULT_SENTINEL,
    render_test_body,
)
from .profile import (
    BlockProfile,
    IntegratedApplication,
    IntegrationPlan,
    ProfileGuidedIntegrator,
    profile_application,
)

__all__ = [
    "AgingFaultDetected",
    "AgingLibrary",
    "DetectionResult",
    "FAULT_SENTINEL",
    "render_test_body",
    "BlockProfile",
    "IntegratedApplication",
    "IntegrationPlan",
    "ProfileGuidedIntegrator",
    "profile_application",
]
